"""Ingest, projection, row filters and rendering work a column at a time.

The row-wise versions they replaced are kept here as references, and
hypothesis checks that both give the same relation or the same bytes.
Exact-bytes tests pin the edge shapes a column-wise loop can get wrong:
no columns, no rows, an empty column name, trailing spaces and the text
"None" beside a null.
"""

import csv
import io
import sys
import tracemalloc
from decimal import Decimal
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import fdq.cli
from fdq.cli import Session, render, run_command
from fdq.errors import FdqError, IngestError, KindMismatchError, SchemaError
from fdq.query import execute, parse_extended_select
from fdq.relation import (
    _DEC_RE,
    _INT_RE,
    DECIMAL,
    INTEGER,
    TEXT,
    AttributeMeta,
    Comparison,
    Relation,
    compare_values,
    eval_row_predicate,
    load_csv,
)
from fdq.result import ResultTable

common = settings(derandomize=True, deadline=None, max_examples=200)


# --- the row-wise references ------------------------------------------------------

def rowwise_format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, Decimal):
        return str(value)
    return str(value)


def rowwise_render_grid(table: ResultTable) -> str:
    cells = [list(table.columns)] + [
        [rowwise_format_cell(v) for v in row] for row in table.rows
    ]
    widths = [max(len(r[i]) for r in cells) for i in range(len(table.columns))]
    lines = [" | ".join(c.ljust(w) for c, w in zip(cells[0], widths)).rstrip()]
    lines.append("-+-".join("-" * w for w in widths))
    for row in cells[1:]:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    n = len(table.rows)
    lines.append(f"({n} row)" if n == 1 else f"({n} rows)")
    return "\n".join(lines)


def _rowwise_csv_field(text: str) -> str:
    if any(ch in text for ch in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def rowwise_render_csv(table: ResultTable) -> str:
    lines = [",".join(_rowwise_csv_field(c) for c in table.columns)]
    for row in table.rows:
        lines.append(",".join(_rowwise_csv_field(rowwise_format_cell(v)) for v in row))
    return "\r\n".join(lines)


def rowwise_render_records(table: ResultTable) -> str:
    if not table.rows:
        return "(0 rows)"
    width = max(len(c) for c in table.columns)
    blocks = []
    for row in table.rows:
        blocks.append(
            "\n".join(
                f"{c.ljust(width)}: {rowwise_format_cell(v)}"
                for c, v in zip(table.columns, row)
            )
        )
    return "\n\n".join(blocks)


ROWWISE_RENDER = {
    "table": rowwise_render_grid,
    "csv": rowwise_render_csv,
    "records": rowwise_render_records,
}


def _rowwise_infer_kind(cells) -> str:
    saw_value = False
    all_int = True
    all_dec = True
    for cell in cells:
        if cell is None:
            continue
        saw_value = True
        if all_int and not _INT_RE.match(cell):
            all_int = False
        if all_dec and not _DEC_RE.match(cell):
            all_dec = False
        if not all_dec:
            break
    if not saw_value:
        return TEXT
    if all_int:
        return INTEGER
    if all_dec:
        return DECIMAL
    return TEXT


def _rowwise_convert(cell, kind):
    if cell is None:
        return None
    if kind == INTEGER:
        return int(cell)
    if kind == DECIMAL:
        return Decimal(cell)
    return cell


def rowwise_load_csv(source: bytes, *, name="table", has_header=True, null_token=""):
    """`load_csv` over bytes, converting cell by cell."""
    records, line_nums = [], []
    try:
        reader = csv.reader(io.StringIO(source.decode("utf-8-sig")))
        for record in reader:
            if not record:
                continue
            records.append(record)
            line_nums.append(reader.line_num)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise IngestError(f"cannot parse CSV source: {exc}") from exc
    if not records:
        raise SchemaError("empty source: no records to ingest")
    if has_header:
        header = records[0]
        data = records[1:]
        data_lines = line_nums[1:]
        if len(set(header)) != len(header):
            raise SchemaError(f"duplicate attribute name in header: {header}")
    else:
        header = [f"col{i}" for i in range(len(records[0]))]
        data = records
        data_lines = line_nums
    arity = len(header)
    for record, line in zip(data, data_lines):
        if len(record) != arity:
            raise IngestError(
                f"line {line}: expected {arity} fields, got {len(record)}"
            )
    columns = [
        [None if cell == null_token else cell for cell in col]
        for col in zip(*data)
    ] if data else [[] for _ in header]
    kinds = [_rowwise_infer_kind(col) for col in columns]
    metas = tuple(
        AttributeMeta(n, i, k) for i, (n, k) in enumerate(zip(header, kinds))
    )
    rows = tuple(
        tuple(_rowwise_convert(columns[j][i], kinds[j]) for j in range(arity))
        for i in range(len(data))
    )
    return Relation(name, metas, rows)


# --- exact bytes at the edges ------------------------------------------------------

EDGE_CASES = {
    "no_columns_with_rows": (
        ResultTable((), ((), ())),
        {"table": "\n\n\n\n(2 rows)", "csv": "\r\n\r\n", "records": "\n\n"},
    ),
    "no_columns_no_rows": (
        ResultTable((), ()),
        {"table": "\n\n(0 rows)", "csv": "", "records": "(0 rows)"},
    ),
    "empty_column_name": (
        ResultTable(("", "b"), (("x", 1),)),
        {
            "table": "  | b\n--+--\nx | 1\n(1 row)",
            "csv": ",b\r\nx,1",
            "records": " : x\nb: 1",
        },
    ),
    "empty_name_and_cell": (
        ResultTable(("",), (("",),)),
        {"table": "\n\n\n(1 row)", "csv": "\r\n", "records": ": "},
    ),
    "text_none_beside_a_null": (
        ResultTable(("a",), (("None",), (None,))),
        {
            "table": "a\n----\nNone\n\n(2 rows)",
            "csv": "a\r\nNone\r\n",
            "records": "a: None\n\na: ",
        },
    ),
    "last_cell_ends_in_spaces": (
        ResultTable(("a", "b"), (("x", "y  "), ("long", None))),
        {
            "table": "a    | b\n-----+----\nx    | y\nlong |\n(2 rows)",
            "csv": "a,b\r\nx,y  \r\nlong,",
            "records": "a: x\nb: y  \n\na: long\nb: ",
        },
    ),
}


@pytest.mark.parametrize("mode", ["table", "csv", "records"])
@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_edge_shapes_render_exact_bytes(case, mode):
    table, expected = EDGE_CASES[case]
    assert render(table, mode) == expected[mode]


@pytest.mark.parametrize(
    "mode, expected",
    [
        ("table", "\n" * 12 + "(10 rows)"),
        ("csv", "\r\n" * 10),
        ("records", "\n\n" * 9),
    ],
)
def test_empty_dependent_projection_exact_bytes(data_dir, mode, expected):
    """Pack determines nothing in the sample, so DEPENDENT projects no
    column: a blank header and separator, then one blank line per row."""
    session = Session(data_dir=str(data_dir), output_mode=mode)
    session, _ = run_command(session, "LOAD 'iowa.csv' AS IOWA")
    _, out = run_command(session, 'SELECT DEPENDENT (["Pack"]) FROM IOWA')
    assert out == expected


def test_records_of_rows_without_columns_is_no_internal_error():
    """The row-wise records renderer took the width of no column names
    and raised; a record without fields is now an empty block."""
    table = ResultTable((), ((),) * 3)
    with pytest.raises(ValueError):
        rowwise_render_records(table)
    assert render(table, "records") == "\n\n\n\n"


# --- renderers equal the row-wise references --------------------------------------

TEXTS = st.text(
    alphabet=st.sampled_from(list('ab ,"\r\n\t{}:|-é日 ')), max_size=6
)
CELLS = st.one_of(
    st.none(),
    TEXTS,
    st.sampled_from(["", "None"]),
    st.integers(-10**6, 10**6),
    st.decimals(allow_nan=False, allow_infinity=False, places=3),
    st.floats(),
)


@st.composite
def result_tables(draw):
    width = draw(st.integers(0, 3))
    columns = tuple(draw(st.lists(TEXTS, min_size=width, max_size=width)))
    rows = draw(st.lists(st.tuples(*[CELLS] * width), max_size=5))
    return ResultTable(columns, tuple(rows))


@common
@given(result_tables(), st.sampled_from(["table", "csv", "records"]))
@example(ResultTable(("a",), ((1.0,), (1e-7,), (float("inf"),))), "table")
def test_renderers_equal_the_rowwise_references(table, mode):
    if mode == "records" and not table.columns and table.rows:
        return  # the reference raises here; pinned by the test above
    assert render(table, mode) == ROWWISE_RENDER[mode](table)


# --- equal values share a text only where they print alike ------------------------

# a few cells each, so that columns repeat them: ints, texts, nulls, the text
# "None" and texts ending in spaces
REPEATED_CELLS = st.sampled_from(
    [None, "None", "", "a", "a ", "a  ", "x y", 0, 7, -7, 10**20]
)
# equal decimals whose texts differ, as LOAD keeps them and as UPDATE writes
# an integer literal into a decimal column
DECIMAL_TRAPS = st.sampled_from([
    Decimal("1.0"), Decimal("1.00"), Decimal(1), Decimal("1E+1"), Decimal("10"),
    Decimal("-0"), Decimal("0.0"), None,
])
# SELECTDEP's error column
ERRORS = st.one_of(
    st.sampled_from([0.0, -0.0, 0.05, 1 / 3, 1.0, 1e-7, None]),
    st.floats(0, 1),
)
# cells of other types that equal each other as dict keys: True == 1 == 1.0
EQUAL_ACROSS_TYPES = st.sampled_from(
    [1, 1.0, Decimal("1.0"), True, 0, False, -0.0, Decimal("-0"), "1"]
)


@st.composite
def repetitive_tables(draw):
    pools = draw(st.lists(
        st.sampled_from([REPEATED_CELLS, DECIMAL_TRAPS, ERRORS, EQUAL_ACROSS_TYPES]),
        max_size=4,
    ))
    columns = tuple(draw(st.lists(TEXTS, min_size=len(pools), max_size=len(pools))))
    rows = draw(st.lists(st.tuples(*pools), max_size=30))
    return ResultTable(columns, tuple(rows))


@common
@given(repetitive_tables(), st.sampled_from(["table", "csv", "records"]))
def test_repeated_and_equal_valued_cells_render_as_the_rowwise_references(table, mode):
    if mode == "records" and not table.columns and table.rows:
        return  # the reference raises here; pinned above
    assert render(table, mode) == ROWWISE_RENDER[mode](table)


# the block sizes tried: the smallest ones put a block boundary between
# every pair of rows, and the default keeps these tables in one block
BLOCK_SIZES = [1, 2, 3, fdq.cli._BLOCK]


@common
@given(
    st.one_of(result_tables(), repetitive_tables()),
    st.sampled_from(BLOCK_SIZES),
)
@example(ResultTable((), ((), (), ())), 2)  # no column, as DEPENDENT with none
@example(ResultTable(("a", "b"), ()), 1)
@example(ResultTable(("a",), ((Decimal("1.0"),),)), 1)
@example(ResultTable(("a",), (("None",), (None,), ("None",), (None,))), 3)
@example(
    ResultTable(("d",), tuple((d,) for d in [Decimal("1.0"), Decimal("1.00")] * 3)), 2
)
def test_blocks_of_any_size_render_as_the_rowwise_references(table, block):
    with mock.patch.object(fdq.cli, "_BLOCK", block):
        for mode in ("table", "csv", "records"):
            if mode == "records" and not table.columns and table.rows:
                # the reference raises here; a record without fields is empty
                assert render(table, mode) == "\n\n" * (len(table.rows) - 1)
            else:
                assert render(table, mode) == ROWWISE_RENDER[mode](table)


def test_equal_decimals_keep_their_own_texts(tmp_path):
    """LOAD keeps `1.0` beside `1.00` and `-0` beside `0.0`, all equal in
    pairs, and UPDATE writes the integer literal 1 as `Decimal(1)`: every
    cell prints the text it was given."""
    (tmp_path / "d.csv").write_text("K,D\n1,1.0\n2,1.00\n3,-0\n4,0.0\n5,2.5\n")
    session = Session(data_dir=str(tmp_path))
    session, _ = run_command(session, "LOAD 'd.csv' AS T")
    session, _ = run_command(session, 'UPDATE T SET "D" = 1 WHERE ["K" = 5]')
    _, out = run_command(session, "SELECT * FROM T")
    assert out == (
        "K | D\n"
        "--+-----\n"
        "1 | 1.0\n"
        "2 | 1.00\n"
        "3 | -0\n"
        "4 | 0.0\n"
        "5 | 1\n"
        "(5 rows)"
    )


def test_repeated_decimals_share_their_texts(tmp_path, monkeypatch):
    """LOAD gives each distinct text of a column one object, so a decimal
    column that repeats five texts over 2 000 rows is formatted five times,
    and `1.0` beside `1.00`, `-0` beside `0.0` still print as read."""
    texts = ["1.0", "1.00", "-0", "0.0", "2.5"]
    (tmp_path / "d.csv").write_text(
        "D\n" + "".join(f"{texts[i % 5]}\n" for i in range(2000))
    )
    session = Session(data_dir=str(tmp_path))
    session, _ = run_command(session, "LOAD 'd.csv' AS T")
    table = ResultTable(("D",), session.relations["T"].rows)
    formatted = []
    real_format_cell = fdq.cli.format_cell

    def format_cell(value):
        formatted.append(value)
        return real_format_cell(value)

    monkeypatch.setattr(fdq.cli, "format_cell", format_cell)
    for mode in ("table", "csv", "records"):
        del formatted[:]
        assert render(table, mode) == ROWWISE_RENDER[mode](table)
        assert [str(value) for value in formatted] == texts


def test_csv_and_records_finish_each_distinct_object_once(tmp_path, monkeypatch):
    """Over the same 2 000 cells of five objects, csv quotes the header and
    each object's text once, and records label each once, in the dict that
    shares the texts; both still equal the row-wise references."""
    texts = ["1.0", "1.00", "-0", "0.0", "2.5"]
    (tmp_path / "d.csv").write_text(
        "D\n" + "".join(f"{texts[i % 5]}\n" for i in range(2000))
    )
    session = Session(data_dir=str(tmp_path))
    session, _ = run_command(session, "LOAD 'd.csv' AS T")
    table = ResultTable(("D",), session.relations["T"].rows)
    quoted = []
    real_csv_field = fdq.cli._csv_field

    def csv_field(text):
        quoted.append(text)
        return real_csv_field(text)

    monkeypatch.setattr(fdq.cli, "_csv_field", csv_field)
    assert render(table, "csv") == ROWWISE_RENDER["csv"](table)
    assert sorted(quoted) == sorted(["D", *texts])
    assert render(table, "records") == ROWWISE_RENDER["records"](table)


# --- memory follows the distinct values, not the cells -----------------------------

CATEGORIES = ["AMERICAN VODKAS", "CANADIAN WHISKIES", "SPICED RUM", "IRISH WHISKIES"]


def few_valued_csv(rows: int) -> bytes:
    """Ints, texts and nulls with at most seven distinct cells a column."""
    lines = ["Store,Category,Vendor,Pack"]
    for i in range(rows):
        vendor = "" if i % 3 == 0 else f"V{i % 4}"
        lines.append(f"{1000 + i % 7},{CATEGORIES[i % 4]},{vendor},{6 << i % 4}")
    return "\n".join(lines).encode()


def distinct_valued_csv(rows: int) -> bytes:
    """Eight columns of ints and texts, no cell repeated in its column."""
    lines = [",".join(f"c{j}" for j in range(8))]
    for i in range(rows):
        cells = (f"id {j} {i}" if j % 2 else str(i * (j + 7)) for j in range(8))
        lines.append(",".join(cells))
    return "\n".join(lines).encode()


def peak_ratios(source: bytes) -> tuple[float, float]:
    """tracemalloc peaks of LOAD, over the size of what it keeps, and of
    rendering the grid, over the length of the text. Ratios hold better
    than sizes as the interpreter's object sizes change."""
    tracemalloc.start()
    try:
        relation = load_csv(source)
        kept, load_peak = tracemalloc.get_traced_memory()
        table = ResultTable(relation.attribute_names, relation.rows)
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        text = render(table)
        _, render_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return load_peak / kept, (render_peak - before) / len(text)


def test_load_and_render_peaks_follow_the_distinct_values():
    """20 000 rows of four columns with at most seven values each. Holding
    one text per cell until conversion, LOAD peaked at 3.5 times what it
    kept; it now peaks at 2.1 times. Formatting and padding every cell on
    its own, the grid peaked at 6.9 times its text; it now peaks at 4.3
    times (CPython 3.11). Each bound sits about halfway between."""
    load, grid = peak_ratios(few_valued_csv(20_000))
    assert load < 2.8
    assert grid < 5.6


def test_distinct_valued_columns_are_not_shared():
    """20 000 rows of eight columns with no repeated cell. Sharing their
    texts only adds dicts: LOAD peaked at 1.74 times what it kept where it
    held a dict of texts for every column at once, and the grid at 10.1
    times its text where it built two dicts and a padded text for every
    cell. Taking them cell by cell, both peak as before sharing, at 1.45
    and 6.0 times (CPython 3.11). Each bound sits about halfway between."""
    load, grid = peak_ratios(distinct_valued_csv(20_000))
    assert load < 1.6
    assert grid < 8


def render_peak_ratios(source: bytes) -> dict[str, float]:
    """Per mode, the tracemalloc peak of rendering the table, over the
    length of the text."""
    relation = load_csv(source)
    table = ResultTable(relation.attribute_names, relation.rows)
    ratios = {}
    tracemalloc.start()
    try:
        for mode in ("table", "csv", "records"):
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            text = render(table, mode)
            _, peak = tracemalloc.get_traced_memory()
            ratios[mode] = (peak - before) / len(text)
            del text
    finally:
        tracemalloc.stop()
    return ratios


def test_render_peaks_at_about_twice_the_output():
    """The 20 000 rows of few values above, in each mode. Holding every line
    apart until one final join, the grid peaked at 4.3 times its text, csv
    at 5.5 and records at 3.4; joining each block of lines as it is built,
    all three peak at 2.0 times (CPython 3.11), the blocks and the text."""
    ratios = render_peak_ratios(few_valued_csv(20_000))
    assert max(ratios.values()) < 2.6, ratios


def test_whole_table_holds_peak_follows_its_result():
    """A HOLDS that keeps all 20 000 rows, with the partitions and value
    ids it reads already kept on the snapshot. Building its rows from
    `range` made a fresh int per row and a set of them all before taking
    the witnesses out; it peaked at 23.6 times the result's row tuple. From
    the snapshot's row numbers it builds one set of shared ints and peaks
    at 16.4 times (CPython 3.11), the set's table most of it."""
    relation = load_csv(few_valued_csv(20_000), name="T")
    statement = parse_extended_select(
        'SELECT * FROM T WHERE HOLDS ("Category" -> "Pack")'
    )
    execute(statement, relation)  # keeps the partition and the value ids
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        result = execute(statement, relation)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result.rows) == 20_000
    assert (peak - before) / sys.getsizeof(result.rows) < 20


# --- load_csv equals the row-wise reference ---------------------------------------

INT_CELLS = ["0", "7", "-3", "+12", "0012", "١٢", "99999999999999999999"]
DEC_CELLS = ["1.", ".5", "-2.50", "+0.0", "1e3", "-4.5E-2", "3.14", "1.00"]
TEXT_CELLS = [
    "a", "x y", "1_000", " 5", "5 ", "²", "1e", ".", "-", "NaN",
    "a,b", 'say "hi"', "two\nlines", "é",
]
NULLS = ["", "NA", "-"]


# "\n" most often, so that most sources parse; a lone "\r" inside a line
# is a csv error
LINE_ENDS = ["\n", "\n", "\n", "\r\n", "\r"]
# after a ragged record: a csv error, or quotes left open to the end
MALFORMED_TAILS = ["x\ry\n", '"x', '"x\n1,2\n']


@st.composite
def csv_sources(draw):
    width = draw(st.integers(1, 4))
    null_token = draw(st.sampled_from(NULLS))
    pools = [
        draw(st.sampled_from([
            INT_CELLS,
            DEC_CELLS,
            INT_CELLS + DEC_CELLS,
            INT_CELLS + TEXT_CELLS,
            INT_CELLS + DEC_CELLS + TEXT_CELLS,
        ])) + draw(st.sampled_from([[], [null_token]]))
        for _ in range(width)
    ]
    rows = draw(st.lists(
        st.tuples(*[st.sampled_from(pool) for pool in pools]), max_size=8
    ))
    ragged = rows and draw(st.booleans())
    if ragged:  # one ragged record, so both must refuse
        rows[-1] = rows[-1][:-1] if width > 1 else rows[-1] + ("z",)
    has_header = draw(st.booleans())
    header = draw(st.lists(
        st.sampled_from(["A", "B", "C", "D", "", "A "]),
        min_size=width, max_size=width, unique=draw(st.booleans()),
    ))
    buffer = io.StringIO()

    def write(record):
        end = draw(st.sampled_from(LINE_ENDS))
        csv.writer(buffer, lineterminator=end).writerow(record)

    if has_header:
        write(header)
    for row in rows:
        write(row)
        if draw(st.integers(0, 5)) == 0:
            buffer.write(draw(st.sampled_from(LINE_ENDS)))  # a blank line
    if ragged and draw(st.booleans()):
        buffer.write(draw(st.sampled_from(MALFORMED_TAILS)))
    text = buffer.getvalue()
    if draw(st.booleans()):
        text = "\ufeff" + text  # a byte order mark, which ingest skips
    source = text.encode()
    if draw(st.integers(0, 5)) == 0:  # a byte that is no UTF-8
        at = draw(st.integers(0, len(source)))
        source = source[:at] + b"\xff" + source[at:]
    return source, has_header, null_token


def _outcome(load, source, has_header, null_token):
    try:
        relation = load(source, name="T", has_header=has_header, null_token=null_token)
    except FdqError as exc:
        return type(exc), str(exc)
    cells = [(type(v), str(v)) for row in relation.rows for v in row]
    return relation, cells


@common
@given(csv_sources())
@example((b"A,B\n", True, ""))
@example((b"1,2.5\n,x\n", False, ""))
@example((b"A\nNA\n7\n", True, "NA"))
# past the first chunk of records and the first 8 KiB of bytes
@example((b"A\n" + b"1\n" * 5000 + b"\xff\n", True, ""))
@example((b"A,B\n" + b"1,2\n" * 1500 + b"3\n" + b"4,5\n" * 10, True, ""))
@example((b"A,B\n3\n" + b"1,2\n" * 1500 + b"x\ry\n", True, ""))
@example((b"1,2\n" * 2048 + b"x\n", False, ""))
def test_load_csv_equals_the_rowwise_reference(case):
    source, has_header, null_token = case
    assert _outcome(load_csv, source, has_header, null_token) == _outcome(
        rowwise_load_csv, source, has_header, null_token
    )


# --- each distinct cell is converted once -----------------------------------------

# repeated texts, and distinct texts of equal value: 0 and -0, 1.0 and 1.00
INTERNED_POOLS = [
    ["0", "-0", "+0", "7", "007", "-3"],
    ["1.0", "1.00", "1", "-0", "0.0", "-0.0", "1E+1", "10"],
    ["a", "A", "1.0", "x y"],
]


@common
@given(st.data())
def test_interned_cells_equal_a_cell_by_cell_conversion(data):
    width = data.draw(st.integers(1, 3))
    null_token = data.draw(st.sampled_from(NULLS))
    pools = [
        data.draw(st.sampled_from(INTERNED_POOLS)) + [null_token] * data.draw(st.booleans())
        for _ in range(width)
    ]
    rows = data.draw(st.lists(
        st.tuples(*[st.sampled_from(pool) for pool in pools]), min_size=1, max_size=30
    ))
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows([["A", "B", "C"][:width], *rows])
    source = buffer.getvalue().encode()
    got = load_csv(source, null_token=null_token)
    expected = rowwise_load_csv(source, null_token=null_token)
    assert got.schema == expected.schema
    for got_row, expected_row in zip(got.rows, expected.rows, strict=True):
        for value, reference in zip(got_row, expected_row, strict=True):
            assert type(value) is type(reference)
            assert value == reference and str(value) == str(reference)
    # equal cell texts of a column share one value
    for j in range(width):
        first = {}
        for text, row in zip((record[j] for record in rows), got.rows):
            assert first.setdefault(text, row[j]) is row[j]


@common
@given(
    st.integers(0, 40),
    st.sampled_from([("7", "9" * 5000, "integer"), ("1.5", "1E+9999999999999999999", "decimal")]),
    st.sampled_from(["", "NA"]),
)
def test_out_of_range_after_repeated_cells_names_its_line(repeats, cells, null_token):
    # the same line whichever distinct cell fails first when converted
    cell, huge, kind = cells
    lines = ["A", *[cell, null_token] * repeats, huge, cell, huge]
    source = "\n".join(lines).encode()
    with pytest.raises(IngestError) as caught:
        load_csv(source, null_token=null_token)
    # an empty null token makes a blank line, which still counts as a line
    assert str(caught.value) == f"line {2 * repeats + 2}: {kind} in 'A' is out of range"


# --- row filters scan a column ----------------------------------------------------

NUMBERS = st.one_of(st.none(), st.integers(-3, 3), st.sampled_from(
    [Decimal("-1.5"), Decimal("0.0"), Decimal("2.50")]
))
OPS = ["=", "!=", "<", "<=", ">", ">="]


@common
@given(
    st.lists(st.tuples(NUMBERS, st.one_of(st.none(), st.sampled_from("abc"))),
             max_size=12),
    st.sampled_from(OPS),
    st.one_of(st.integers(-3, 3), st.just(Decimal("0.5"))),
    st.sampled_from(OPS),
    st.sampled_from("abcd"),
)
def test_row_filter_equals_a_per_row_comparison(rows, num_op, num, text_op, text):
    # N mixes int and Decimal cells, which compare by value
    relation = Relation(
        "t",
        (AttributeMeta("N", 0, "decimal"), AttributeMeta("S", 1, "text")),
        tuple(rows),
    )
    for attr, op, const in (("N", num_op, num), ("S", text_op, text)):
        idx = relation.attribute(attr).index
        assert eval_row_predicate(relation, Comparison(attr, op, const)) == {
            i for i, row in enumerate(rows) if compare_values(row[idx], op, const)
        }


def test_row_filter_checks_the_constant_before_the_operator(iowa):
    with pytest.raises(KindMismatchError, match="numeric attribute compared"):
        eval_row_predicate(iowa, Comparison("Pack", "~", "x"))
    with pytest.raises(KindMismatchError, match="unknown operator '~'"):
        eval_row_predicate(iowa, Comparison("Pack", "~", 6))


# --- contracts ---------------------------------------------------------------------

@pytest.mark.parametrize(
    "columns, rows",
    [
        (("a", "b"), (("x", "y"), ("z",))),
        (("a",), (("x",), ("y", "z"))),
        ((), (("x",),)),
        (("a",), ((),)),
    ],
)
def test_ragged_result_rows_are_refused(columns, rows):
    with pytest.raises(ValueError, match="row arity"):
        ResultTable(columns, rows)


def test_select_star_returns_the_stored_rows(iowa):
    whole = execute(parse_extended_select("SELECT * FROM IOWA"), iowa)
    assert len(whole.rows) == iowa.row_count
    assert all(out is row for out, row in zip(whole.rows, iowa.rows))
    names = ", ".join(f'"{name}"' for name in iowa.attribute_names)
    statement = f'SELECT {names} FROM IOWA WHERE ["Pack" >= 12]'
    kept = execute(parse_extended_select(statement), iowa)
    expected = [row for row in iowa.rows if row[iowa.attribute("Pack").index] >= 12]
    assert kept.rows and len(kept.rows) == len(expected)
    assert all(out is row for out, row in zip(kept.rows, expected))


def test_other_projections_build_tuples(iowa):
    one = execute(parse_extended_select('SELECT "Zip" FROM IOWA'), iowa)
    zip_index = iowa.attribute("Zip").index
    assert one.rows == tuple((row[zip_index],) for row in iowa.rows)
    two = execute(parse_extended_select('SELECT "Zip", "Vendor" FROM IOWA'), iowa)
    vendor_index = iowa.attribute("Vendor").index
    assert two.rows == tuple((r[zip_index], r[vendor_index]) for r in iowa.rows)
