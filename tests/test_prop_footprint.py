"""Property-based tests: compiled closed-form footprints.

``measure_typed`` evaluates a footprint compiled once per UDT.  The oracle
here is the recursive walk over the type graph that it replaced: for every
application UDT, recursive and polymorphic fixtures and random class
graphs, with random array lengths, the compiled form must return the walk's
footprint or raise the walk's ``MemoryLayoutError`` — and a class that
gains a field after it was first measured must never be measured with its
old form.
"""

from hypothesis import given, settings, strategies as st

from repro.analysis.udt import (
    BYTE,
    CHAR,
    DOUBLE,
    INT,
    LONG,
    ArrayType,
    ClassType,
    DataType,
    Field,
    PrimitiveType,
)
from repro.apps.connected_components import label_message_udt_info
from repro.apps.kmeans import cluster_stat_udt_info, point_udt_info
from repro.apps.logistic_regression import labeled_point_udt_info
from repro.apps.pagerank import adjacency_udt_info, message_udt_info
from repro.apps.sql_queries import ranking_udt_info, uservisit_udt_info
from repro.apps.wordcount import wordcount_udt_info
from repro.errors import MemoryLayoutError
from repro.jvm import sizing
from repro.spark.measure import (
    RecordFootprint,
    compile_footprint,
    measure_typed,
)
from repro.sql.schema import USERVISITS_SCHEMA, table_udt


# -- the oracle: the type-graph walk the compiled forms replaced --------------

def walk(udt: DataType, value) -> RecordFootprint:
    if isinstance(udt, PrimitiveType):
        return RecordFootprint(
            objects=1,
            object_bytes=sizing.boxed_bytes(udt.name),
            data_bytes=udt.nbytes,
        )
    if isinstance(udt, ArrayType):
        return _walk_array(udt, value)
    if isinstance(udt, ClassType):
        return _walk_class(udt, value)
    raise MemoryLayoutError(f"cannot measure {udt!r}")


def _walk_array(udt: ArrayType, value) -> RecordFootprint:
    length = len(value)
    element_types = udt.element_field.get_type_set()
    element = element_types[0] if len(element_types) == 1 else None
    if isinstance(element, PrimitiveType) or element is None and not length:
        element_bytes = (element.nbytes if isinstance(element, PrimitiveType)
                         else sizing.REFERENCE_BYTES)
        return RecordFootprint(
            objects=1,
            object_bytes=sizing.array_bytes(element_bytes, length),
            data_bytes=(element_bytes * length
                        if isinstance(element, PrimitiveType) else 0),
        )
    total = RecordFootprint(
        objects=1,
        object_bytes=sizing.array_bytes(sizing.REFERENCE_BYTES, length),
        data_bytes=0,
    )
    for item in value:
        if element is None:
            raise MemoryLayoutError(
                f"array {udt.name} has a polymorphic element type-set; "
                "measure each element with its concrete type")
        total = total + walk(element, item)
    return total


def _walk_class(udt: ClassType, value) -> RecordFootprint:
    total = RecordFootprint(
        objects=1, object_bytes=udt.shallow_object_bytes, data_bytes=0)
    values = value if isinstance(value, (tuple, list)) else (value,)
    if len(values) != len(udt.fields):
        raise MemoryLayoutError(
            f"value arity {len(values)} does not match "
            f"{udt.name}'s {len(udt.fields)} fields")
    for field, item in zip(udt.fields, values):
        declared = field.declared_type
        if isinstance(declared, PrimitiveType):
            total = total + RecordFootprint(0, 0, declared.nbytes)
            continue
        type_set = field.get_type_set()
        if len(type_set) != 1:
            raise MemoryLayoutError(
                f"field {udt.name}.{field.name} has a polymorphic "
                "type-set; cannot measure statically")
        total = total + walk(type_set[0], item)
    return total


def outcome(measure, udt: DataType, value):
    try:
        return measure(udt, value)
    except (MemoryLayoutError, TypeError) as error:
        return (type(error).__name__, str(error))


# -- fixtures -----------------------------------------------------------------

class Opaque(DataType):
    """A type the footprint model has no rule for."""

    name = "Opaque"


def _tree() -> ClassType:
    tree = ClassType("Tree", [Field("value", LONG)])
    tree.add_field(Field("children", ArrayType(tree), final=True))
    return tree


def _linked_node() -> ClassType:
    # Every finite value of this type ends in an arity error.
    node = ClassType("Node", [Field("value", INT)])
    node.add_field(Field("next", node))
    return node


def _polymorphic_field() -> ClassType:
    left = ClassType("Left", [Field("x", INT)])
    right = ClassType("Right", [Field("y", DOUBLE)])
    base = ClassType("Base")
    return ClassType("Holder", [
        Field("id", LONG),
        Field("data", ArrayType(DOUBLE), final=True),
        Field("either", base, type_set=(left, right)),
    ])


def _polymorphic_elements() -> ClassType:
    base = ClassType("Shape")
    circle = ClassType("Circle", [Field("r", DOUBLE)])
    square = ClassType("Square", [Field("side", DOUBLE)])
    return ClassType("Scene", [
        Field("id", INT),
        Field("shapes", ArrayType(base, element_type_set=(circle, square))),
    ])


def _matrix() -> ClassType:
    points = ClassType("Point", [Field("x", DOUBLE), Field("y", DOUBLE)])
    return ClassType("Mesh", [
        Field("rows", ArrayType(ArrayType(DOUBLE)), final=True),
        Field("points", ArrayType(points), final=True),
        Field("boxed", INT, type_set=(INT,)),
        Field("opaque", Opaque()),
    ])


def _app_types() -> dict:
    kmeans_stat = cluster_stat_udt_info(4)
    return {
        "wc": wordcount_udt_info().udt,
        "lr": labeled_point_udt_info(8).udt,
        "kmeans.point": point_udt_info(8).udt,
        "kmeans.stat": kmeans_stat.udt,
        "kmeans.stat.object_model": kmeans_stat.object_model,
        "pr.adjacency": adjacency_udt_info().udt,
        "pr.message": message_udt_info().udt,
        "cc.message": label_message_udt_info().udt,
        "sql.ranking": ranking_udt_info().udt,
        "sql.uservisit": uservisit_udt_info().udt,
        "sql.table": table_udt(USERVISITS_SCHEMA),
    }


APP_TYPES = _app_types()
FIXTURES: dict[str, DataType] = {
    **APP_TYPES,
    "tree": _tree(),
    "linked-node": _linked_node(),
    "polymorphic-field": _polymorphic_field(),
    "polymorphic-elements": _polymorphic_elements(),
    "mesh": _matrix(),
    "int": INT,
    "double[]": ArrayType(DOUBLE),
    "byte|char[]": ArrayType(BYTE, element_type_set=(BYTE, CHAR)),
    "opaque": Opaque(),
}


# -- value strategies ---------------------------------------------------------

def draw_value(draw, udt: DataType, depth: int, misshape: bool):
    """A value in *udt*'s schema shape with random array lengths.

    With *misshape*, a class value occasionally loses or gains a field,
    which the walk and the compiled form must reject alike.
    """
    if isinstance(udt, PrimitiveType):
        return draw(st.integers(-5, 5))
    if isinstance(udt, ArrayType):
        element_types = udt.element_field.get_type_set()
        element = element_types[0] if len(element_types) == 1 else None
        if isinstance(element, PrimitiveType):
            length = draw(st.integers(0, 70))
            # Footprints read only the length: any sized value will do.
            return draw(st.sampled_from(
                [tuple(range(length)), list(range(length)), "x" * length]))
        length = draw(st.integers(0, 3 if depth > 0 else 0))
        if element is None:
            length = draw(st.sampled_from([0, length]))
            return tuple(range(length))
        return tuple(draw_value(draw, element, depth - 1, misshape)
                     for _ in range(length))
    if isinstance(udt, ClassType):
        if depth < -2:
            return None  # cuts a class that contains itself
        items = []
        for field in udt.fields:
            type_set = field.get_type_set()
            if isinstance(field.declared_type, PrimitiveType):
                items.append(draw(st.integers(-5, 5)))
            elif len(type_set) == 1:
                items.append(draw_value(draw, type_set[0], depth - 1,
                                        misshape))
            else:
                items.append(draw_value(draw, draw(st.sampled_from(
                    type_set)), depth - 1, misshape))
        if misshape and draw(st.integers(0, 7)) == 0:
            if items and draw(st.booleans()):
                items.pop()
            else:
                items.append(0)
        if (len(items) == 1 and not isinstance(items[0], (tuple, list))
                and draw(st.booleans())):
            return items[0]  # a one-field class may be passed bare
        return tuple(items) if draw(st.booleans()) else list(items)
    return None


def values_of(udt: DataType, depth: int = 3, misshape: bool = False):
    return st.composite(
        lambda draw: draw_value(draw, udt, depth, misshape))()


@st.composite
def fixture_and_value(draw, misshape: bool):
    udt = FIXTURES[draw(st.sampled_from(sorted(FIXTURES)))]
    return udt, draw(values_of(udt, draw(st.integers(0, 3)), misshape))


_FIELD_TYPES = st.sampled_from([
    INT, LONG, DOUBLE, CHAR, BYTE,
    ArrayType(DOUBLE), ArrayType(CHAR), ArrayType(LONG),
])


@st.composite
def random_class(draw, depth: int = 2) -> ClassType:
    """A random class graph: primitive, array, boxed, nested-class and
    reference-array fields."""
    fields = []
    for index in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(
            ["primitive", "boxed", "class", "class[]"]
            if depth > 0 else ["primitive", "boxed"]))
        name = f"f{index}"
        if kind == "primitive":
            fields.append(Field(name, draw(_FIELD_TYPES)))
        elif kind == "boxed":
            prim = draw(st.sampled_from([INT, DOUBLE]))
            base = ClassType("Number")
            fields.append(Field(name, base, type_set=(prim,)))
        elif kind == "class":
            fields.append(Field(name, draw(random_class(depth - 1))))
        else:
            fields.append(Field(
                name, ArrayType(draw(random_class(depth - 1)))))
    return ClassType(f"C{depth}_{draw(st.integers(0, 99))}", fields)


# -- properties ---------------------------------------------------------------

@given(fixture_and_value(misshape=False))
@settings(max_examples=300, deadline=None)
def test_compiled_footprint_equals_the_walk(case):
    udt, value = case
    expected = outcome(walk, udt, value)
    assert outcome(measure_typed, udt, value) == expected
    if any(udt is app for app in APP_TYPES.values()):
        assert isinstance(expected, RecordFootprint)


@given(fixture_and_value(misshape=True))
@settings(max_examples=300, deadline=None)
def test_misshapen_values_raise_what_the_walk_raises(case):
    udt, value = case
    assert outcome(measure_typed, udt, value) == outcome(walk, udt, value)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_random_class_graphs_match_the_walk(data):
    udt = data.draw(random_class())
    value = data.draw(values_of(udt, misshape=data.draw(st.booleans())))
    assert outcome(measure_typed, udt, value) == outcome(walk, udt, value)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_add_field_after_first_measurement_is_never_stale(data):
    inner = ClassType("Inner", [Field("a", INT),
                                Field("xs", ArrayType(DOUBLE))])
    outer = ClassType("Outer", [Field("label", DOUBLE),
                                Field("inner", inner)])
    element = ClassType("Element", [Field("k", LONG)])
    holder = ClassType("Holder", [Field("items", ArrayType(element))])

    before = {udt: data.draw(values_of(udt)) for udt in (outer, holder)}
    for udt, value in before.items():
        assert measure_typed(udt, value) == walk(udt, value)
    # Grow classes that the compiled forms inlined (Inner into Outer)
    # or reach through a helper (Element via Holder's array).
    for cls in data.draw(st.lists(st.sampled_from([inner, element]),
                                  min_size=1, max_size=3)):
        cls.add_field(Field(f"added{len(cls.fields)}",
                            data.draw(_FIELD_TYPES)))
    for udt, old_value in before.items():
        new_value = data.draw(values_of(udt))
        assert (outcome(measure_typed, udt, new_value)
                == outcome(walk, udt, new_value))
        assert (outcome(measure_typed, udt, old_value)
                == outcome(walk, udt, old_value))


@given(st.text(max_size=30), st.integers(1, 9))
@settings(max_examples=100, deadline=None)
def test_wordcount_measures_the_word_itself(word, count):
    """WC's measure_encode passes the word for its char[]: same footprint
    as the code-point tuple the schema encoding builds."""
    info = wordcount_udt_info()
    record = (word, count)
    assert info.measure(record) == walk(info.udt,
                                        info.to_schema_value(record))


# -- the generated source -----------------------------------------------------

def test_sfst_source_is_constant():
    """An SFST's footprint folds to constants: no length is read."""
    fn = compile_footprint(message_udt_info().udt)
    assert "len(v" in fn.__deca_source__  # the arity check only
    assert "return _FP(1, 32, 16)" in fn.__deca_source__
    assert fn((3, 0.5)) == walk(message_udt_info().udt, (3, 0.5))


def test_rfst_source_has_one_term_per_primitive_array():
    lr = labeled_point_udt_info(8).udt
    source = compile_footprint(lr).__deca_source__
    assert source.count("& -8") == 1
    assert "def _fp" not in source  # nested classes are inlined
    tree_source = compile_footprint(_tree()).__deca_source__
    assert "def _fp0(v):" in tree_source  # recursion goes through a helper

