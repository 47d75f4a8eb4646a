"""Object-graph footprint measurement.

The cache-size bars and GC-pressure numbers of every figure depend on how
many heap objects and bytes one record costs in each representation:

* **object form** (Spark): the full JVM object graph — headers, references,
  boxed primitives in generic containers (Fig. 2 top);
* **decomposed form** (Deca): the record's *data-size* — the primitives
  alone (Fig. 2 bottom);
* **serialized form** (SparkSer): Kryo bytes, essentially data-size plus a
  small per-object tag.

When a dataset declares its UDT, the measurement evaluates that type's
closed-form footprint — compiled once per type, with the record's actual
array lengths as its only runtime inputs.  Untyped datasets (plain
driver-side values) fall back to a generic measurer over Python values.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Callable

from ..analysis.udt import ArrayType, ClassType, DataType, PrimitiveType
from ..errors import MemoryLayoutError
from ..jvm import sizing

# Kryo writes a 1-2 byte class registration tag per top-level object.
KRYO_TAG_BYTES = 2


@dataclass(frozen=True)
class RecordFootprint:
    """Heap cost of one record in its three representations."""

    objects: int          # heap objects in the object form
    object_bytes: int     # bytes of the object form
    data_bytes: int       # raw data size (the decomposed form)

    @property
    def serialized_bytes(self) -> int:
        """Approximate Kryo size (data plus a class tag)."""
        return self.data_bytes + KRYO_TAG_BYTES

    def __add__(self, other: "RecordFootprint") -> "RecordFootprint":
        return RecordFootprint(
            self.objects + other.objects,
            self.object_bytes + other.object_bytes,
            self.data_bytes + other.data_bytes,
        )


ZERO_FOOTPRINT = RecordFootprint(0, 0, 0)

# A memo of compile_footprint by type, valid while ``ClassType.layout_epoch``
# is unchanged (a class shape the form folded in may have grown a field).
_compiled: dict[DataType, Callable[[Any], RecordFootprint]] = {}
_compiled_epoch = -1


def measure_typed(udt: DataType, value) -> RecordFootprint:
    """Measure *value* (in schema shape — nested tuples) against *udt*.

    Dispatches to *udt*'s compiled closed form (:func:`compile_footprint`),
    built on first use and rebuilt once any class gains a field.
    """
    global _compiled_epoch
    if _compiled_epoch != ClassType.layout_epoch:
        _compiled.clear()
        _compiled_epoch = ClassType.layout_epoch
    footprint = _compiled.get(udt)
    if footprint is None:
        footprint = _compiled[udt] = compile_footprint(udt)
    return footprint(value)


def compile_footprint(udt: DataType) -> Callable[[Any], RecordFootprint]:
    """Compile *udt*'s footprint into straight-line Python.

    The §3 size-type classes fix the shape of the result: an SFST's
    objects, bytes and data bytes are constants, folded here; an RFST or
    VST adds one ``align(16 + eb*len(x))`` / ``eb*len(x)`` term per
    primitive array.  Reference arrays and recursive types call the
    per-type helper functions emitted beside the entry point.  The
    function checks arities and type-sets in the same order as the value
    is laid out, so it raises what a walk over the type graph would.
    The generated source is kept on ``__deca_source__``.
    """
    source, fn_name = _FootprintSource(udt).generate()
    namespace = {
        "_FP": RecordFootprint,
        "_seq": (tuple, list),
        "_error": MemoryLayoutError,
        "_arity": _arity_error,
    }
    exec(compile(source, f"<deca-footprint:{udt.name}>", "exec"),
         namespace)
    fn = namespace[fn_name]
    fn.__deca_source__ = source
    return fn


def _arity_error(got: int, name: str, expected: int) -> MemoryLayoutError:
    return MemoryLayoutError(
        f"value arity {got} does not match {name}'s {expected} fields")


# align(ARRAY_HEADER_BYTES + eb*n) as one bit mask (ALIGNMENT is 2^k).
assert sizing.ALIGNMENT & (sizing.ALIGNMENT - 1) == 0
_ARRAY_ROUND = sizing.ARRAY_HEADER_BYTES + sizing.ALIGNMENT - 1
_ARRAY_MASK = -sizing.ALIGNMENT


class _FootprintSource:
    """Emits the footprint functions of one root type.

    Each type becomes statements (length reads, arity and type-set
    checks) plus three sums — objects, object bytes, data bytes — of
    folded constants and per-array terms.  Nested classes are inlined; a
    class already being inlined (recursion) and the elements of a
    reference array go through a helper returning the three sums.
    """

    def __init__(self, root: DataType) -> None:
        self.root = root
        self.helpers: dict[DataType, str] = {}
        self.pending: list[tuple[str, DataType]] = []
        self.names = 0
        # The function being emitted: its statements, and its objects /
        # object-bytes / data-bytes sums (ints folded, strings runtime).
        self.out: list[str] = []
        self.sums: tuple[list, list, list] = ([], [], [])

    def generate(self) -> tuple[str, str]:
        fn_name = "footprint_" + re.sub(r"\W", "_", self.root.name)
        doc = f"Closed-form footprint of {self.root.name}."
        lines = [f"def {fn_name}(v):", f"    {doc!r}"]
        lines += self.function_body(self.root, "_FP")
        while self.pending:
            name, data_type = self.pending.pop()
            lines.append("")
            lines.append(f"def {name}(v):")
            lines += self.function_body(data_type, "")
        return "\n".join(lines) + "\n", fn_name

    def function_body(self, data_type: DataType, wrap: str) -> list[str]:
        self.out = []
        self.sums = ([], [], [])
        if self.emit(data_type, "v", ()):
            sums = ", ".join(map(_render, self.sums))
            self.out.append(f"    return {wrap}({sums})")
        return self.out

    def local(self, stem: str) -> str:
        self.names += 1
        return f"{stem}{self.names}"

    def helper(self, data_type: DataType) -> str:
        name = self.helpers.get(data_type)
        if name is None:
            name = self.helpers[data_type] = f"_fp{len(self.helpers)}"
            self.pending.append((name, data_type))
        return name

    def emit(self, data_type: DataType, x: str, inlining: tuple) -> bool:
        """Emit *data_type* measured at expression *x*.

        Returns False when the emitted code ends in an unconditional
        raise (nothing after it is reachable).
        """
        objects, nbytes, data = self.sums
        if isinstance(data_type, PrimitiveType):
            # A bare primitive inside a generic container gets boxed.
            objects.append(1)
            nbytes.append(sizing.boxed_bytes(data_type.name))
            data.append(data_type.nbytes)
            return True
        if isinstance(data_type, ArrayType):
            return self.emit_array(data_type, x)
        if isinstance(data_type, ClassType):
            if any(data_type is cls for cls in inlining):
                self.emit_call(data_type, x)
                return True
            return self.emit_class(data_type, x, inlining)
        self.out.append(
            f"    raise _error({f'cannot measure {data_type!r}'!r})")
        return False

    def emit_class(self, cls: ClassType, x: str, inlining: tuple) -> bool:
        out = self.out
        objects, nbytes, data = self.sums
        fields = cls.fields
        if x == "v":
            v = x
        else:
            v = self.local("v")
            out.append(f"    {v} = {x}")
        out.append(f"    if not isinstance({v}, _seq):")
        out.append(f"        {v} = ({v},)")
        out.append(f"    if len({v}) != {len(fields)}:")
        out.append(f"        raise _arity(len({v}), {cls.name!r}, "
                   f"{len(fields)})")
        objects.append(1)
        nbytes.append(cls.shallow_object_bytes)
        inlining = inlining + (cls,)
        for index, field in enumerate(fields):
            declared = field.declared_type
            if isinstance(declared, PrimitiveType):
                data.append(declared.nbytes)
                continue
            type_set = field.get_type_set()
            if len(type_set) != 1:
                message = (f"field {cls.name}.{field.name} has a polymorphic "
                           "type-set; cannot measure statically")
                out.append(f"    raise _error({message!r})")
                return False
            if not self.emit(type_set[0], f"{v}[{index}]", inlining):
                return False
        return True

    def emit_array(self, array: ArrayType, x: str) -> bool:
        out = self.out
        objects, nbytes, data = self.sums
        element_types = array.element_field.get_type_set()
        element = element_types[0] if len(element_types) == 1 else None
        objects.append(1)
        if element is None:
            # Only an empty array of a polymorphic element type-set has a
            # static footprint: the bare reference array.
            message = (f"array {array.name} has a polymorphic element "
                       "type-set; measure each element with its concrete "
                       "type")
            out.append(f"    if len({x}):")
            out.append(f"        raise _error({message!r})")
            nbytes.append(sizing.array_bytes(sizing.REFERENCE_BYTES, 0))
            return True
        n = self.local("n")
        out.append(f"    {n} = len({x})")
        if isinstance(element, PrimitiveType):
            slot = element.nbytes
            nbytes.append(f"(({_ARRAY_ROUND} + {slot}*{n}) & {_ARRAY_MASK})")
            data.append(f"{slot}*{n}")
            return True
        # Reference array: the array object plus each element's graph.
        nbytes.append(f"(({_ARRAY_ROUND} + {sizing.REFERENCE_BYTES}*{n}) "
                      f"& {_ARRAY_MASK})")
        totals = [self.local(stem) for stem in ("o", "b", "d")]
        parts = [self.local(stem) for stem in ("po", "pb", "pd")]
        item = self.local("e")
        out.append(f"    {' = '.join(totals)} = 0")
        out.append(f"    for {item} in {x}:")
        out.append(f"        {', '.join(parts)} = "
                   f"{self.helper(element)}({item})")
        for total, part in zip(totals, parts):
            out.append(f"        {total} += {part}")
        for terms, total in zip(self.sums, totals):
            terms.append(total)
        return True

    def emit_call(self, data_type: DataType, x: str) -> None:
        """Measure *x* through *data_type*'s helper function."""
        names = [self.local(stem) for stem in ("o", "b", "d")]
        self.out.append(f"    {', '.join(names)} = "
                   f"{self.helper(data_type)}({x})")
        for terms, name in zip(self.sums, names):
            terms.append(name)


def _render(terms: list) -> str:
    """One sum: the folded constant followed by the runtime terms."""
    constant = sum(t for t in terms if isinstance(t, int))
    runtime = [t for t in terms if not isinstance(t, int)]
    if not runtime:
        return str(constant)
    return " + ".join(([str(constant)] if constant else []) + runtime)


def measure_generic(value) -> RecordFootprint:
    """Measure an untyped Python value as its JVM-equivalent graph.

    Used for driver-side collections and datasets without a declared UDT.
    Numbers box, strings become ``String`` + ``char[]``, tuples/lists
    become objects with reference fields.
    """
    if value is None:
        return ZERO_FOOTPRINT
    if isinstance(value, bool):
        return RecordFootprint(1, sizing.boxed_bytes("boolean"), 1)
    if isinstance(value, int):
        return RecordFootprint(1, sizing.boxed_bytes("long"), 8)
    if isinstance(value, float):
        return RecordFootprint(1, sizing.boxed_bytes("double"), 8)
    if isinstance(value, str):
        chars = sizing.array_bytes(2, len(value))
        return RecordFootprint(
            objects=2,
            object_bytes=sizing.object_bytes(1, 4) + chars,
            data_bytes=2 * len(value),
        )
    if isinstance(value, (bytes, bytearray)):
        return RecordFootprint(
            1, sizing.array_bytes(1, len(value)), len(value))
    if isinstance(value, (tuple, list)):
        total = RecordFootprint(
            1, sizing.object_bytes(len(value), 0), 0)
        for item in value:
            total = total + measure_generic(item)
        return total
    if isinstance(value, dict):
        total = RecordFootprint(1, sizing.object_bytes(1, 12), 0)
        for k, v in value.items():
            total = total + measure_generic(k) + measure_generic(v)
        return total
    # Opaque object: one header, unknown payload.
    return RecordFootprint(1, sizing.object_bytes(0, 16), 16)
