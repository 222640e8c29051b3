"""Rendering contract tests: PlantUML tokens, HTML sections, golden files."""

import html
import re
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from msaconform.automaton import StateMachine
from msaconform.detector import NcKind, NonConformance, PresenceTag, TaggedView, detect, ArchView
from msaconform.interpret import (
    CallSummary,
    NcDetails,
    interpretations_for,
)
from msaconform.report import (
    NO_TRACEABILITY,
    _escape,
    page_filename,
    render_architecture_puml,
    render_index,
    render_nc_page,
)
from msaconform.static_model import Flow, Traceability

GOLDEN = Path(__file__).parent / "golden"

_PUML_LINE_RES = [
    re.compile(r'^component "[a-z0-9-]+" as c_\w+( #line:(blue|orange);line\.(dotted|dashed))?$'),
    re.compile(r"^c_\w+ -\[#(black|blue,dotted|orange,dashed)\]-> c_\w+$"),
]


def validate_architecture_puml(text: str) -> bool:
    """Smoke-check that the emitted subset parses line by line."""
    lines = text.splitlines()
    if not lines or lines[0] != "@startuml" or lines[-1] != "@enduml":
        return False
    return all(any(r.match(line) for r in _PUML_LINE_RES) for line in lines[1:-1])


def fixture_tagged_view() -> TaggedView:
    static = ArchView(
        frozenset({"gateway", "order", "payment"}),
        frozenset({("gateway", "order"), ("order", "payment")}),
    )
    dynamic = ArchView(
        frozenset({"gateway", "order", "metrics"}),
        frozenset({("gateway", "order"), ("order", "metrics")}),
    )
    tv, _ncs = detect(static, dynamic)
    return tv


def fixture_ncs():
    static = ArchView(
        frozenset({"gateway", "order", "payment"}),
        frozenset({("gateway", "order"), ("order", "payment")}),
    )
    dynamic = ArchView(
        frozenset({"gateway", "order", "metrics"}),
        frozenset({("gateway", "order"), ("order", "metrics")}),
    )
    _tv, ncs = detect(static, dynamic)
    return ncs


def submachine():
    return StateMachine(
        frozenset({0, 1}), 0, {(0, "order→metrics:POST /push"): (1, 4)}
    )


class TestArchitecturePuml:
    def test_dynamic_only_edge_orange_dashed(self):
        text = render_architecture_puml(fixture_tagged_view())
        line = next(l for l in text.splitlines() if "c_order" in l and "c_metrics" in l)
        assert "#orange" in line and "dashed" in line

    def test_static_only_edge_blue_dotted(self):
        text = render_architecture_puml(fixture_tagged_view())
        line = next(l for l in text.splitlines() if "c_order" in l and "c_payment" in l)
        assert "#blue" in line and "dotted" in line

    def test_all_both_no_color_tokens(self):
        v = ArchView(frozenset({"a", "b"}), frozenset({("a", "b")}))
        tv, _ = detect(v, v)
        text = render_architecture_puml(tv)
        assert "blue" not in text and "orange" not in text

    def test_valid_subset(self):
        assert validate_architecture_puml(render_architecture_puml(fixture_tagged_view()))

    def test_token_mapping_exhaustive(self):
        tv = fixture_tagged_view()
        text = render_architecture_puml(tv)
        for (s, r), tag in tv.edges.items():
            line = next(l for l in text.splitlines() if l.startswith(f"c_{s} -[") and l.endswith(f"> c_{r}"))
            if tag is PresenceTag.StaticOnly:
                assert "#blue,dotted" in line
            elif tag is PresenceTag.DynamicOnly:
                assert "#orange,dashed" in line
            else:
                assert "#black" in line

    def test_golden(self):
        text = render_architecture_puml(fixture_tagged_view())
        assert text == (GOLDEN / "architecture.puml").read_text("utf-8")


def static_nc_and_details():
    nc = NonConformance(NcKind.Static, "edge", ("order", "metrics"))
    details = NcDetails(
        kind=NcKind.Static,
        submachine=submachine(),
        frequent_calls=(CallSummary("order", "metrics", "POST", "/push", 4),),
    )
    return nc, details


def dynamic_nc_and_details(with_traceability=True):
    nc = NonConformance(NcKind.Dynamic, "edge", ("order", "payment"))
    flow = Flow(
        sender="order",
        receiver="payment",
        traceability=(
            Traceability(file="order/pay.py", line=42, snippet="pay(order_id)")
            if with_traceability
            else None
        ),
    )
    details = NcDetails(
        kind=NcKind.Dynamic,
        code_pointer=flow.traceability,
        trigger_sequence=(Flow(sender="gateway", receiver="order"), flow),
        call_details=(CallSummary("order", "payment", "POST", "/pay", 1),),
    )
    return nc, details


class TestNcPage:
    def test_static_page_content(self):
        nc, details = static_nc_and_details()
        interps = interpretations_for(NcKind.Static)
        page = render_nc_page(nc, details)
        assert "static non-conformance" in page
        for interp in interps:
            assert interp.title in page
        assert page.count("<table>") == 1

    def test_dynamic_page_no_traceability_sentence(self):
        nc, details = dynamic_nc_and_details(with_traceability=False)
        details = NcDetails(
            kind=NcKind.Dynamic,
            code_pointer=None,
            trigger_sequence=details.trigger_sequence,
            call_details=details.call_details,
        )
        page = render_nc_page(nc, details)
        assert NO_TRACEABILITY in page
        assert "dynamic non-conformance" in page

    def test_section_order(self):
        nc, details = static_nc_and_details()
        page = render_nc_page(nc, details)
        i1 = page.index("1. Type and involved services")
        i2 = page.index("2. Possible interpretations")
        i3 = page.index("3. Additional details")
        assert i1 < i2 < i3

    def test_kind_mismatch_rejected(self):
        nc, _ = static_nc_and_details()
        _, dyn_details = dynamic_nc_and_details()
        with pytest.raises(ValueError):
            render_nc_page(nc, dyn_details)

    def test_golden_static(self):
        nc, details = static_nc_and_details()
        page = render_nc_page(nc, details)
        assert page == (GOLDEN / "nc_static.html").read_text("utf-8")

    def test_golden_dynamic(self):
        nc, details = dynamic_nc_and_details()
        page = render_nc_page(nc, details)
        assert page == (GOLDEN / "nc_dynamic.html").read_text("utf-8")

    def test_byte_identical_across_runs(self):
        nc, details = static_nc_and_details()
        a = render_nc_page(nc, details)
        b = render_nc_page(nc, details)
        assert a == b


class TestIndex:
    def test_counts_and_links(self):
        tv = fixture_tagged_view()
        ncs = fixture_ncs()
        n_static = sum(1 for nc in ncs if nc.kind is NcKind.Static)
        n_dynamic = len(ncs) - n_static
        html = render_index(ncs, render_architecture_puml(tv))
        assert f"{n_static} static" in html
        assert f"{n_dynamic} dynamic" in html
        assert html.count("<a href=") == len(ncs)

    def test_zero_ncs_full_conformance(self):
        v = ArchView(frozenset({"a"}), frozenset())
        tv, ncs = detect(v, v)
        html = render_index(ncs, render_architecture_puml(tv))
        assert "fully conforms" in html
        assert "<a href=" not in html

    def test_links_match_page_filenames(self):
        ncs = fixture_ncs()
        tv = fixture_tagged_view()
        html = render_index(ncs, render_architecture_puml(tv))
        for nc in ncs:
            assert f'href="{page_filename(nc.id)}"' in html

    def test_each_id_once(self):
        ncs = fixture_ncs()
        tv = fixture_tagged_view()
        html = render_index(ncs, render_architecture_puml(tv))
        for nc in ncs:
            assert html.count(f'href="{page_filename(nc.id)}"') == 1

    def test_golden(self):
        tv = fixture_tagged_view()
        html = render_index(fixture_ncs(), render_architecture_puml(tv))
        assert html == (GOLDEN / "index.html").read_text("utf-8")
        v = ArchView(frozenset({"a"}), frozenset())
        tv, ncs = detect(v, v)
        html = render_index(ncs, render_architecture_puml(tv))
        assert html == (GOLDEN / "index_conforming.html").read_text("utf-8")


# any character, lone surrogates included, mixed with runs of the characters
# html.escape replaces and with character references that are already escaped
_ESCAPE_TEXT = st.lists(st.one_of(
    st.characters(blacklist_categories=()),
    st.sampled_from(["&", "<", ">", '"', "'", "&amp;", "&lt;", "&#x27;", "&quot;", "&#39;"]),
)).map("".join)


@given(_ESCAPE_TEXT)
@example("")
@example("&<>\"'&&<<>>\"\"''")
@example("&amp;&lt;&gt;&quot;&#x27;")
@example("\ud800a\udfff")
def test_escape_matches_html_escape(text):
    assert _escape(text) == html.escape(text)
