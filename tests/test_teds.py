import random
import re
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles import (
    brute_force_tree_distance,
    postorder,
    random_small_tree,
    reference_flatten,
    reference_parse_table_html,
)

from tsrkit.cli import main
from tsrkit.errors import HtmlParseError
from tsrkit.fixtures import FixtureSpec, generate_fixtures
from tsrkit.formats import load_detections, load_ground_truth
from tsrkit.teds import (
    TableTree,
    corpus_teds,
    parse_table_html,
    teds,
    tree_edit_distance,
    tree_is_complex,
)
from tsrkit.reconstruct import build_grid, grid_to_html, grid_to_tree
from tsrkit.teds import _ted_py, distance
from tsrkit.teds.distance import _distance_and_sizes, _flatten
from tsrkit.teds.tree import _TAG_TEXT, _decode

MINIMAL = "<table><tbody><tr><td></td></tr></tbody></table>"


# ---------------------------------------------------------------- parsing

def test_parse_minimal_table():
    tree = parse_table_html(MINIMAL)
    assert tree.tag == "table"
    assert tree.size() == 4  # table, tbody, tr, td
    assert [n.tag for n in postorder(tree)] == ["td", "tr", "tbody", "table"]


def test_parse_colspan_attribute():
    tree = parse_table_html('<table><tbody><tr><td colspan="2"></td></tr></tbody></table>')
    td = next(n for n in postorder(tree) if n.tag == "td")
    assert td.colspan == 2 and td.rowspan == 1


def test_parse_unbalanced_is_error():
    with pytest.raises(HtmlParseError):
        parse_table_html("<table><tr></table>")


@pytest.mark.parametrize(
    "fragment",
    [
        "<table><tbody><tr><td colspan=\"x\"></td></tr></tbody></table>",
        "<table><tbody><tr><td colspan=\"0\"></td></tr></tbody></table>",
        "<table><tbody><td></td></tbody></table>",  # td outside tr
        "<table><tbody><tr><td></td></tr>",  # tbody never closed
        "<table><tbody><tr><td>",  # td never closed
        "<tbody></tbody>",
        "<table><tbody><tr><td></td></tr></tbody></table><p>",
    ],
)
def test_parse_rejects(fragment):
    with pytest.raises(HtmlParseError):
        parse_table_html(fragment)


@pytest.mark.parametrize("ws", ["\n", "\t", "\r\n"], ids=["lf", "tab", "crlf"])
def test_parse_any_whitespace_in_tags(ws):
    fragment = (
        f"<table{ws}><tbody><tr{ws}><td{ws}rowspan=1{ws}colspan{ws}={ws}\"2\"></td>"
        f"</tr{ws}></tbody></table>"
    )
    expected = '<table><tbody><tr><td colspan="2"></td></tr></tbody></table>'
    assert parse_table_html(fragment).to_html() == expected


@pytest.mark.parametrize(
    "attr",
    [
        'colspan="1_0"',  # int() reads 10
        'colspan="\u0662"',  # ARABIC-INDIC DIGIT TWO, int() reads 2
        'rowspan="\uff13"',  # FULLWIDTH DIGIT THREE
        'colspan="1001"',
        'rowspan="65535"',
        'colspan="99999999999"',
    ],
    ids=["underscore", "arabic-indic", "fullwidth", "colspan-1001", "rowspan-65535", "huge"],
)
def test_parse_rejects_bad_span_values(attr):
    fragment = f"<table><tbody><tr><td></td><td {attr}></td></tr></tbody></table>"
    with pytest.raises(HtmlParseError) as err:
        parse_table_html(fragment)
    assert err.value.offset == fragment.index(f"<td {attr}")


def test_parse_span_values_at_the_limits():
    fragment = '<table><tbody><tr><td colspan=" +1000 " rowspan="065534"></td></tr></tbody></table>'
    cell = parse_table_html(fragment).children[0].children[0].children[0]
    assert (cell.colspan, cell.rowspan) == (1000, 65534)
    too_long = f'<table><tbody><tr><td colspan="{"9" * 5000}"></td></tr></tbody></table>'
    with pytest.raises(HtmlParseError):
        parse_table_html(too_long)


def test_parse_error_carries_offset():
    fragment = "<table><tbody><banner></tbody></table>"
    with pytest.raises(HtmlParseError) as err:
        parse_table_html(fragment)
    assert err.value.offset == fragment.index("<banner>")


def test_parse_error_offset_counts_characters():
    # the <p> starts at character 8 and at UTF-8 byte 9
    with pytest.raises(HtmlParseError) as err:
        parse_table_html("<table>\u00e9<p>")
    assert err.value.offset == 8
    assert str(err.value) == "unexpected tag <p> (at character 8)"


def test_parse_ignores_cell_content_and_whitespace():
    fragment = """<table>
        <tbody>
            <tr><td> 42 <b>bold<br>text</b> </td></tr>
        </tbody>
    </table>"""
    assert parse_table_html(fragment).size() == 4


def test_parse_normalizes_th_to_td():
    tree = parse_table_html(
        '<table><thead><tr><th colspan="2">H</th></tr></thead><tbody><tr><td></td><td></td></tr></tbody></table>'
    )
    tags = [n.tag for n in postorder(tree)]
    assert "th" not in tags
    header_cell = next(n for n in postorder(tree) if n.colspan == 2)
    assert header_cell.tag == "td"


def _node(tag):
    return lambda children: TableTree(tag, children=children)


# table -> optional thead, tbody -> tr+ -> td+, spans up to the WHATWG limits
_cells = st.builds(
    TableTree,
    st.just("td"),
    colspan=st.integers(1, 3) | st.integers(1, 1000),
    rowspan=st.integers(1, 3) | st.integers(1, 65534),
)
_rows = st.lists(_cells, min_size=1, max_size=4).map(_node("tr"))


def _section(tag):
    return st.lists(_rows, min_size=1, max_size=3).map(_node(tag))


grammar_trees = st.builds(
    lambda head, body: TableTree("table", children=[head, body] if head else [body]),
    st.none() | _section("thead"),
    _section("tbody"),
)


# the backend fixture selects a backend once per test function, and every example runs under it
_BACKEND_FIXTURE = [HealthCheck.function_scoped_fixture]


@settings(max_examples=150, derandomize=True, deadline=None, suppress_health_check=_BACKEND_FIXTURE)
@given(grammar_trees)
def test_parse_inverts_to_html(backend, tree):
    assert parse_table_html(tree.to_html()) == tree


# Pieces of tags, whole tags and the characters the tokenizer branches on,
# whitespace that str.isspace accepts beyond ASCII included.
_FRAGMENTS = (
    "<", ">", "/", "=", '"', "'", "0", "1", "2", "+", "-", "_",
    " ", "\t", "\n", "\x1c", "\xa0", "\u3000", "x", "TD", "th", "tr", "br",
    "colspan", "rowspan", "<table>", "</table>", "<thead>", "</thead>",
    "<tbody>", "</tbody>", "<tr>", "</tr>", "<td>", "</td>", "<th>", "</th>",
    "<td", "</", "<b>", "</b>", "<br/>", "< >", "<td colspan='2'>",
    "<td rowspan=' 3 '>", '<td colspan="2">', "<td colspan=2>",
    '<td title="a<b">', "<td <b>", "\u00e9",
)
_FIXTURE_TABLES = [
    image.html
    for image in generate_fixtures(FixtureSpec(n_tables=8, seed=3, max_rows=3, max_cols=3))[0].images
]
# fragments after nothing, after an open table or row, or after a whole table
_fragment_text = st.builds(
    str.__add__,
    st.sampled_from(("", "<table>", "<table><tbody><tr>", *_FIXTURE_TABLES)),
    st.lists(st.sampled_from(_FRAGMENTS), max_size=30).map("".join),
)


@st.composite
def _mutated_tables(draw):
    """A fixture table with one to four insertions of a fragment or deletions of a short run."""
    text = draw(st.sampled_from(_FIXTURE_TABLES))
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, len(text)))
        if draw(st.booleans()):
            text = text[:pos] + draw(st.sampled_from(_FRAGMENTS)) + text[pos:]
        else:
            text = text[:pos] + text[pos + draw(st.integers(1, 8)) :]
    return text


def _parse_outcome(parse, text):
    try:
        return parse(text)
    except HtmlParseError as exc:
        return str(exc), exc.offset


@settings(max_examples=600, derandomize=True, deadline=None, suppress_health_check=_BACKEND_FIXTURE)
@given(_fragment_text | _mutated_tables())
def test_parse_matches_reference_scanner(backend, text):
    """Any text gives a tree or an HtmlParseError, the scanner's tree or its message and offset."""
    expected = _parse_outcome(reference_parse_table_html, text)
    assert _parse_outcome(parse_table_html, text) == expected


def test_canonical_scanner_declines_no_generated_table(compiled_kernel):
    """Ground truth from the fixture generator and tables from reconstruct are all canonical."""
    tables = []
    for spec in (FixtureSpec(n_tables=40, seed=3), FixtureSpec(n_tables=20, seed=17, max_rows=30, max_cols=12)):
        gt, pred = generate_fixtures(spec)
        tables += [image.html for image in gt.images]
        tables += [grid_to_html(build_grid(ann)) for ann in pred.annotation_sets()]
    trees = [compiled_kernel.parse_canonical(html, TableTree) for html in tables]
    assert sum(tree is None for tree in trees) == 0
    assert trees == list(map(reference_parse_table_html, tables))
    assert any(tree.children[0].tag == "thead" for tree in trees)
    assert any(tree_is_complex(tree) for tree in trees)


_CANONICAL = '<table><thead><tr><td colspan="2"></td></tr></thead><tbody><tr><td rowspan="3"></td></tr></tbody></table>'


@pytest.mark.parametrize(
    "text",
    [
        _CANONICAL.replace("td", "th"),
        _CANONICAL.replace("<td", "<td "),
        _CANONICAL.replace("<tbody>", "<tbody\n>"),
        _CANONICAL.replace("</tr>", "</tr >", 1),
        _CANONICAL.replace('colspan="2"', 'colspan = "2"'),
        _CANONICAL.replace('colspan="2"', 'colspan="2"  '),
        _CANONICAL.upper(),
        _CANONICAL.replace("<table>", "<TABLE>"),
        _CANONICAL.replace('colspan="2"', 'colspan="1"'),
        _CANONICAL.replace('rowspan="3"', 'rowspan="1"'),
        _CANONICAL.replace('colspan="2"', 'colspan="02"'),
        _CANONICAL.replace('rowspan="3"', 'rowspan="03"'),
        _CANONICAL.replace('colspan="2"', "colspan='2'"),
        _CANONICAL.replace('colspan="2"', "colspan=2"),
        _CANONICAL.replace('colspan="2"', 'colspan="+2"'),
        _CANONICAL.replace('<td rowspan="3">', '<td rowspan="3" colspan="2">'),
        _CANONICAL.replace('<td rowspan="3">', '<td colspan="2" colspan="3">'),
        _CANONICAL.replace('colspan="2"', 'colspan="1001"'),
        _CANONICAL.replace('rowspan="3"', 'rowspan="65535"'),
        _CANONICAL.replace('colspan="2"', f'colspan="{"9" * 30}"'),
        _CANONICAL.replace("></td>", ">x</td>", 1),
        _CANONICAL.replace("></td>", "><b></b></td>", 1),
        _CANONICAL.replace("></td>", ">\u00e9</td>", 1),
        _CANONICAL.replace("<tbody>", "<tbody>\u3000"),
        _CANONICAL.replace("<td", "<td\u00a0"),
        _CANONICAL.replace("</td>", "", 1),
        _CANONICAL.replace("<tbody>", "<tr>"),
        _CANONICAL.replace("</table>", ""),
        _CANONICAL + "<p>",
        _CANONICAL + "</table>",
        "<table><td></td></table>",
        "<table/>",
        "<table>",
        "",
    ],
)
@pytest.mark.parametrize("backend", ["compiled"], indirect=True)
def test_canonical_scanner_declines_every_other_form(compiled_kernel, backend, text):
    """Anything to_html does not write is left to the grammar, which then decides as it always has."""
    assert compiled_kernel.parse_canonical(text, TableTree) is None
    assert _parse_outcome(parse_table_html, text) == _parse_outcome(reference_parse_table_html, text)


def test_canonical_scanner_builds_each_node_through_the_class(compiled_kernel):
    calls = []

    def node(*args):
        calls.append(args)
        return TableTree(*args)

    assert compiled_kernel.parse_canonical(_CANONICAL, node) == parse_table_html(_CANONICAL)
    assert sorted(args[:3] for args in calls) == sorted(
        (n.tag, n.colspan, n.rowspan) for n in postorder(parse_table_html(_CANONICAL))
    )

    def refuse(*args):
        raise RuntimeError(f"no {args[0]}")

    with pytest.raises(RuntimeError, match="no td"):
        compiled_kernel.parse_canonical(_CANONICAL, refuse)


@pytest.mark.parametrize(
    "text",
    [
        f"junk{MINIMAL}",
        f"{MINIMAL}trailing",
        MINIMAL.replace("<tbody>", "<tbody>\n  text ").replace("</tr>", "</tr>\r\n"),
        f" \u00e9 {MINIMAL} > ",
    ],
)
def test_parse_discards_text_outside_tags(backend, text):
    """Text before <table>, between structure tags and after </table> is discarded, not rejected."""
    assert parse_table_html(text) == parse_table_html(MINIMAL) == reference_parse_table_html(text)


@pytest.mark.parametrize("fragment", [MINIMAL.encode(), None, 4, ["<table>", "</table>"]])
def test_parse_rejects_what_is_not_a_str(backend, fragment):
    with pytest.raises(TypeError) as expected:
        _TAG_TEXT.findall(fragment)
    with pytest.raises(TypeError, match=re.escape(str(expected.value))):
        parse_table_html(fragment)


def test_parse_repeated_malformed_tag_reports_each_offset():
    """One tag text decodes once, but each fragment's error carries its own offset."""
    bad = '<td colspan="2>'
    first = f"<table><tbody><tr>{bad}</td></tr></tbody></table>"
    second = f"<table><thead><tr><td></td></tr></thead><tbody><tr>{bad}</td></tr></tbody></table>"
    for fragment in (first, second, first):
        with pytest.raises(HtmlParseError) as err:
            parse_table_html(fragment)
        assert err.value.offset == fragment.index(bad)
        assert str(err.value) == f"unterminated value for attribute 'colspan' (at character {err.value.offset})"


def test_parse_tag_memo_is_bounded():
    assert _decode.cache_info().maxsize is not None


# --------------------------------------------------------------- distance

def test_distance_identical_trees():
    a = parse_table_html(MINIMAL)
    b = parse_table_html(MINIMAL)
    assert tree_edit_distance(a, b) == 0.0


def test_distance_single_insertion():
    a = parse_table_html(MINIMAL)
    b = parse_table_html("<table><tbody><tr><td></td><td></td></tr></tbody></table>")
    assert tree_edit_distance(a, b) == 1.0


def test_distance_span_rename_costs_one():
    a = parse_table_html("<table><tbody><tr><td></td><td></td></tr></tbody></table>")
    b = parse_table_html('<table><tbody><tr><td colspan="2"></td><td></td></tr></tbody></table>')
    assert tree_edit_distance(a, b) == 1.0


def test_distance_matches_brute_force_oracle():
    rng = random.Random(2024)
    for _ in range(60):
        a = random_small_tree(rng)
        b = random_small_tree(rng)
        expected = brute_force_tree_distance(a, b)
        assert tree_edit_distance(a, b) == expected


def test_distance_triangle_inequality_sampled():
    rng = random.Random(5)
    for _ in range(40):
        a, b, c = (random_small_tree(rng) for _ in range(3))
        ab = tree_edit_distance(a, b)
        bc = tree_edit_distance(b, c)
        ac = tree_edit_distance(a, c)
        assert ac <= ab + bc + 1e-9


def random_table_tree(rng, n_rows, n_cols=6):
    """table > tbody > n_rows rows of n_cols cells: 2 + 7 * n_rows nodes at 6 columns."""
    body = TableTree("tbody")
    for _ in range(n_rows):
        body.children.append(
            TableTree(
                "tr",
                children=[
                    TableTree("td", colspan=rng.choice((1, 1, 1, 2)), rowspan=rng.choice((1, 1, 2)))
                    for _ in range(n_cols)
                ],
            )
        )
    return TableTree("table", children=[body])


def as_int64(args):
    return tuple(np.ascontiguousarray(seq, dtype=np.int64) for seq in args)


def test_backends_agree(compiled_kernel):
    rng = random.Random(99)
    pairs = [(random_small_tree(rng, max_nodes=12), random_small_tree(rng, max_nodes=12)) for _ in range(40)]
    pairs += [(random_small_tree(rng, max_nodes=100), random_small_tree(rng, max_nodes=100)) for _ in range(3)]
    # corpus-sized tables: 100 and 282 nodes, against a table a few rows shorter
    pairs += [(random_table_tree(rng, 14), random_table_tree(rng, 12)) for _ in range(2)]
    pairs.append((random_table_tree(rng, 40), random_table_tree(rng, 37)))
    assert pairs[-1][0].size() == 282
    for a, b in pairs:
        interner = {}
        args = (*_flatten(a, interner), *_flatten(b, interner))
        assert _ted_py.tree_distance(*args) == compiled_kernel.tree_distance(*as_int64(args))
    flat = _flatten(random_table_tree(rng, 3), {})
    empty = ((), (), ())
    for args in ((*empty, *flat), (*flat, *empty), (*empty, *empty)):
        assert compiled_kernel.tree_distance(*as_int64(args)) == _ted_py.tree_distance(*args)


def _chain(n_nodes):
    """A path of ``n_nodes`` nodes, one child each, with a spanning cell at the bottom."""
    node = TableTree("td", colspan=2)
    for i in range(n_nodes - 1):
        node = TableTree(("tr", "tbody", "table")[i % 3], children=[node])
    return node


def test_flatten_matches_reference():
    """One walk gives the arrays and interner of the postorder pass plus keyroot sort it replaced."""
    rng = random.Random(41)
    trees = [random_small_tree(rng, max_nodes=rng.choice((1, 2, 12, 40))) for _ in range(120)]
    trees += [TableTree("td"), TableTree("tr"), _chain(2), _chain(13)]
    trees += [random_table_tree(rng, n_rows) for n_rows in (1, 3, 14, 40)]
    assert max(tree.size() for tree in trees) == 282
    for a, b in zip(trees, trees[1:] + trees[:1]):
        interner, expected_interner = {}, {}
        got = (_flatten(a, interner), _flatten(b, interner))
        expected = (reference_flatten(a, expected_interner), reference_flatten(b, expected_interner))
        assert got == expected
        assert interner == expected_interner


def _equal_but_distinct_pairs():
    fragment = '<table><thead><tr><td colspan="2"></td></tr></thead><tbody><tr><td></td><td></td></tr></tbody></table>'
    pairs = [(parse_table_html(fragment), parse_table_html(fragment))]
    gt, _ = generate_fixtures(FixtureSpec(n_tables=6, seed=5))
    for ann in gt.annotation_sets():
        grid = build_grid(ann)
        pairs.append((grid_to_tree(grid), parse_table_html(grid_to_html(grid))))
    return pairs


def _active_kernel():
    """The module whose ``tree_distance`` the selected backend calls."""
    return distance.compiled() or _ted_py


def test_equal_trees_score_without_the_dp(monkeypatch, backend):
    def no_dp(*args):
        raise AssertionError("equal trees reached the DP")

    pairs = _equal_but_distinct_pairs()
    monkeypatch.setattr(_ted_py, "tree_distance", no_dp)
    monkeypatch.setattr(_active_kernel(), "tree_distance", no_dp)
    for a, b in pairs:
        assert a == b and a is not b
        assert teds(a, b) == 1.0
        assert tree_edit_distance(a, b) == 0.0


def test_spans_off_cells_still_reach_the_dp(monkeypatch, backend):
    """Spans count only on cells, so these unequal trees are 0 apart, and the DP says so."""
    calls = []
    kernel = _active_kernel()
    tree_distance = kernel.tree_distance

    def counted(*args):
        calls.append(len(args[0]))
        return tree_distance(*args)

    monkeypatch.setattr(kernel, "tree_distance", counted)
    a, b = TableTree("tr", colspan=2), TableTree("tr")
    assert a != b
    assert tree_edit_distance(a, b) == 0.0
    assert teds(a, b) == 1.0
    assert calls == [1, 1]


def test_kernels_return_zero_on_equal_trees(backend):
    rng = random.Random(8)
    pairs = _equal_but_distinct_pairs() + [(t, t) for t in (TableTree("td"), random_table_tree(rng, 14))]
    for _ in range(20):
        tree = random_small_tree(rng, max_nodes=12)
        pairs.append((tree, tree))
    for a, b in pairs:
        assert _distance_and_sizes(a, b) == (0.0, a.size(), b.size())


def test_one_switch_sends_all_three_paths_to_their_twins_at_call_time(compiled_kernel, monkeypatch, tmp_path):
    """TSRKIT_PURE_PYTHON is read at the start of every corpus load, on every parse and on every
    distance call, so setting it in a running process moves the packer, the canonical parser and
    the TED kernel to their pure-Python twins at once."""
    prefix = str(tmp_path / "fx")
    assert main(["gen-fixtures", "-o", prefix, "--tables", "5", "--seed", "2"]) == 0
    a, b = parse_table_html(MINIMAL), parse_table_html(_CANONICAL)
    calls = Counter()

    def counted(name):
        function = getattr(compiled_kernel, name)

        def call(*args):
            calls[name] += 1
            return function(*args)

        return call

    names = ("pack_columns", "parse_canonical", "tree_distance")
    monkeypatch.setattr(distance, "_speedup", SimpleNamespace(**{name: counted(name) for name in names}))
    monkeypatch.delenv("TSRKIT_PURE_PYTHON", raising=False)

    def load_parse_and_score():
        calls.clear()
        images = load_ground_truth(f"{prefix}.gt.json").images + load_detections(f"{prefix}.pred.json").images
        return len(images), parse_table_html(_CANONICAL), teds(a, b)

    compiled = load_parse_and_score()
    assert compiled[2] < 1.0
    assert calls == {"pack_columns": 10, "parse_canonical": 1, "tree_distance": 1}
    monkeypatch.setenv("TSRKIT_PURE_PYTHON", "1")
    assert load_parse_and_score() == compiled
    assert calls == {}


def test_compiled_kernel_rejects_bad_buffers(compiled_kernel):
    good = as_int64(_flatten(parse_table_html(MINIMAL), {}))
    for bad in (
        good[0].astype(np.int32),
        good[0].reshape(1, -1),
        np.repeat(good[0], 2)[::2],  # strided view
        good[0].astype(np.float64),
        list(good[0]),
    ):
        with pytest.raises(TypeError):
            compiled_kernel.tree_distance(bad, *good[1:], *good)
    # index arrays outside the tree are refused before the DP reads them
    lmld, labels, keyroots = good
    for bad_tree in (
        (lmld + 1, labels, keyroots),
        (lmld, labels[:-1], keyroots),
        (lmld, labels, keyroots + len(lmld)),
        (np.array([0, 0, 1]), np.array([1, 2, 3]), np.array([2])),
    ):
        with pytest.raises(ValueError):
            compiled_kernel.tree_distance(*bad_tree, *good)


# ------------------------------------------------------------------- teds

def test_teds_identity():
    t = parse_table_html(MINIMAL)
    assert teds(t, t) == 1.0


def test_teds_arithmetic():
    rng = random.Random(17)
    for _ in range(50):
        a = random_small_tree(rng)
        b = random_small_tree(rng)
        value = teds(a, b)
        assert 0.0 <= value <= 1.0
        assert value == pytest.approx(teds(b, a))


def test_teds_five_node_single_edit():
    a = parse_table_html("<table><tbody><tr><td></td><td></td></tr></tbody></table>")
    b = parse_table_html("<table><tbody><tr><td></td><td></td><td></td></tr></tbody></table>")
    assert a.size() == 5
    assert teds(a, b) == pytest.approx(1.0 - 1.0 / 6.0)
    assert teds(a, a) == 1.0


def test_teds_colspan_mismatch_six_nodes():
    a = parse_table_html(
        "<table><tbody><tr><td></td><td></td><td></td></tr></tbody></table>"
    )
    b = parse_table_html(
        '<table><tbody><tr><td colspan="2"></td><td></td><td></td></tr></tbody></table>'
    )
    assert a.size() == 6 and b.size() == 6
    expected = brute_force_tree_distance(a, b)
    assert expected == 1.0
    assert teds(a, b) == pytest.approx(1.0 - 1.0 / 6.0)


def test_teds_monotone_under_deletion():
    base = parse_table_html("<table><tbody><tr><td></td><td></td></tr></tbody></table>")
    smaller = parse_table_html("<table><tbody><tr><td></td></tr></tbody></table>")
    assert teds(base, smaller) < teds(base, base)


def test_rename_cost_model():
    # one-node trees: the distance is the rename cost, which never exceeds delete + insert
    td1 = TableTree("td", colspan=2)
    td2 = TableTree("td", colspan=2)
    td3 = TableTree("td", rowspan=3)
    assert tree_edit_distance(td1, td2) == 0.0
    assert tree_edit_distance(td1, td3) == 1.0
    assert tree_edit_distance(TableTree("tr"), TableTree("tr")) == 0.0
    assert tree_edit_distance(TableTree("tr"), TableTree("tbody")) == 1.0


# ----------------------------------------------------------------- corpus

COMPLEX = '<table><tbody><tr><td colspan="2"></td></tr><tr><td></td><td></td></tr></tbody></table>'


def tree_pairs(*html_pairs):
    """(predicted, ground-truth) HTML pairs as the tree pairs ``corpus_teds`` scores."""
    return [(parse_table_html(pred), parse_table_html(gt)) for pred, gt in html_pairs]


def test_corpus_identical_pairs():
    report = corpus_teds(tree_pairs((MINIMAL, MINIMAL), (COMPLEX, COMPLEX)))
    assert report.simple_mean == 1.0
    assert report.complex_mean == 1.0
    assert report.overall_mean == 1.0


def test_corpus_group_means():
    simple_pred = "<table><tbody><tr><td></td><td></td></tr></tbody></table>"
    report = corpus_teds(tree_pairs((simple_pred, MINIMAL), (COMPLEX, COMPLEX)))
    assert report.simple_mean == pytest.approx(1.0 - 1.0 / 5.0)
    assert report.complex_mean == 1.0
    assert report.overall_mean == pytest.approx((0.8 + 1.0) / 2.0)


def test_corpus_mixed_group_arithmetic():
    # simple pair at 1 - 1/5 = 0.8: one cell deleted from a 5-node table
    simple_gt = "<table><tbody><tr><td></td><td></td></tr></tbody></table>"
    simple_pred = "<table><tbody><tr><td></td></tr></tbody></table>"
    # complex pair at 1 - 4/10 = 0.6: one cell plus a whole row (tr + 2 td)
    # deleted from a 10-node table
    complex_gt = (
        '<table><tbody><tr><td colspan="2"></td><td></td><td></td><td></td></tr>'
        "<tr><td></td><td></td></tr></tbody></table>"
    )
    complex_pred = (
        '<table><tbody><tr><td colspan="2"></td><td></td><td></td></tr>'
        "</tbody></table>"
    )
    assert parse_table_html(complex_gt).size() == 10
    report = corpus_teds(tree_pairs((simple_pred, simple_gt), (complex_pred, complex_gt)))
    assert report.simple_mean == pytest.approx(0.8)
    assert report.complex_mean == pytest.approx(0.6)
    assert report.overall_mean == pytest.approx(0.7)


def test_corpus_empty_group_is_absent():
    report = corpus_teds(tree_pairs((MINIMAL, MINIMAL)))
    assert report.complex_mean is None
    assert report.overall_mean == 1.0


def test_corpus_unparsable_prediction_scores_zero():
    # None stands for a prediction the caller could not read or parse;
    # test_cli.test_teds_reports_each_prediction_that_scores_zero covers the CLI's reasons
    report = corpus_teds([(None, parse_table_html(MINIMAL)), (None, parse_table_html(COMPLEX))])
    assert (report.simple_mean, report.complex_mean, report.overall_mean) == (0.0, 0.0, 0.0)


def test_corpus_reads_pairs_once_in_order():
    simple_pred = "<table><tbody><tr><td></td><td></td></tr></tbody></table>"
    pairs = tree_pairs((simple_pred, MINIMAL), (COMPLEX, COMPLEX), (MINIMAL, MINIMAL))
    read = []

    def generated():
        for index, pair in enumerate(pairs):
            read.append(index)
            yield pair

    assert corpus_teds(generated()) == corpus_teds(pairs)
    assert read == [0, 1, 2]
    assert corpus_teds(generated()).overall_mean == pytest.approx((0.8 + 1.0 + 1.0) / 3.0)


def test_complexity_from_tree():
    assert not tree_is_complex(parse_table_html(MINIMAL))
    assert tree_is_complex(parse_table_html(COMPLEX))
