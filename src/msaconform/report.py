"""Report generation: PlantUML architecture graph and HTML pages.

Color/style mapping in the architecture diagram:

* present in both models — black, solid
* only in the static model (dynamic non-conformance) — blue, dotted
* only in the dynamic model (static non-conformance) — orange, dashed

All output is deterministic: elements are emitted in sorted order and
rendering the same inputs twice produces byte-identical text.
"""

from __future__ import annotations

from typing import Callable, Iterable

from .automaton import StateMachine
from .detector import NcKind, NonConformance, PresenceTag, TaggedView
from .errors import encode_utf8
from .interpret import CallSummary, NcDetails, interpretations_for

NO_TRACEABILITY = "No traceability information available."


def _escape(s: str) -> str:
    """``html.escape(s)``: ``&``, ``<``, ``>``, ``"`` and ``'`` as character
    references, without loading ``html``'s table of named entities."""
    return (s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
            .replace('"', "&quot;").replace("'", "&#x27;"))


def _alias(name: str) -> str:
    return "c_" + name.replace("-", "_")


_NODE_STYLE = {
    PresenceTag.Both: "",
    PresenceTag.StaticOnly: " #line:blue;line.dotted",
    PresenceTag.DynamicOnly: " #line:orange;line.dashed",
}
_EDGE_ARROW = {
    PresenceTag.Both: "-[#black]->",
    PresenceTag.StaticOnly: "-[#blue,dotted]->",
    PresenceTag.DynamicOnly: "-[#orange,dashed]->",
}


def render_architecture_puml(tv: TaggedView) -> str:
    """PlantUML component diagram of the tagged architecture."""
    lines = ["@startuml"]
    for name in sorted(tv.nodes):
        lines.append(f'component "{name}" as {_alias(name)}{_NODE_STYLE[tv.nodes[name]]}')
    for sender, receiver in sorted(tv.edges):
        arrow = _EDGE_ARROW[tv.edges[(sender, receiver)]]
        lines.append(f"{_alias(sender)} {arrow} {_alias(receiver)}")
    lines.append("@enduml")
    return "\n".join(lines) + "\n"


def _submachine_puml(sm: StateMachine) -> str:
    lines = ["@startuml", f"[*] --> s{sm.initial}"]
    for (src, sym), (dst, freq) in sorted(sm.transitions.items()):
        lines.append(f"s{src} --> s{dst} : {sym} ({freq})")
    lines.append("@enduml")
    return "\n".join(lines)


def _calls_table(calls: tuple[CallSummary, ...] | list[CallSummary]) -> str:
    rows = [
        "<table>",
        "<tr><th>Caller</th><th>Callee</th><th>Method</th><th>Path</th><th>Count</th></tr>",
    ]
    for c in calls:
        rows.append(
            "<tr>"
            f"<td>{_escape(c.caller)}</td><td>{_escape(c.callee)}</td>"
            f"<td>{_escape(c.method)}</td><td>{_escape(c.path_template)}</td>"
            f"<td>{c.count}</td></tr>"
        )
    rows.append("</table>")
    return "\n".join(rows)


_PAGE_STYLE = (
    "<style>body{font-family:sans-serif;margin:2em;max-width:60em}"
    "table{border-collapse:collapse}td,th{border:1px solid #999;padding:4px 8px}"
    "pre{background:#f4f4f4;padding:1em;overflow-x:auto}"
    "h2{border-bottom:1px solid #ccc}</style>"
)

_DEFINITIONS = {
    NcKind.Static: (
        "static non-conformance",
        "communication observed in the running system but missing from the static model",
    ),
    NcKind.Dynamic: (
        "dynamic non-conformance",
        "communication declared in the static model but never observed in the running system",
    ),
}


def _page(title: str, parts: list[str]) -> str:
    """A self-contained HTML page: the shell around ``parts``, one per line."""
    return "\n".join([
        "<!DOCTYPE html>",
        f'<html lang="en"><head><meta charset="utf-8">'
        f"<title>{_escape(title)}</title>{_PAGE_STYLE}</head><body>",
        *parts,
        "</body></html>",
    ]) + "\n"


def _describe_subject(nc: NonConformance) -> str:
    if nc.subject_type == "edge":
        return f"edge {nc.names[0]} → {nc.names[1]}"
    return f"node {nc.names[0]}"


def render_nc_page(nc: NonConformance, details: NcDetails) -> str:
    """Self-contained HTML page for one non-conformance, with its kind's interpretations."""
    if details.kind is not nc.kind:
        raise ValueError("details variant does not match non-conformance kind")
    label, definition = _DEFINITIONS[nc.kind]
    parts = [
        f"<h1>{_escape(label.capitalize())}: {_escape(_describe_subject(nc))}</h1>",
        "<h2>1. Type and involved services</h2>",
        f"<p>This is a <strong>{label}</strong>: {definition}.</p>",
        "<p>Involved services: "
        + ", ".join(f"<code>{_escape(s)}</code>" for s in nc.names)
        + "</p>",
        "<h2>2. Possible interpretations</h2>",
        "<ul>",
    ]
    for interp in interpretations_for(nc.kind):
        parts.append(
            f"<li><strong>{_escape(interp.title)}</strong>: "
            f"{_escape(interp.body)} <em>[{_escape(interp.source)}]</em></li>"
        )
    parts.append("</ul>")
    parts.append("<h2>3. Additional details</h2>")

    if nc.kind is NcKind.Static:
        parts.append("<h3>Unexpected communication behavior</h3>")
        if details.submachine is not None:
            parts.append(
                '<pre class="plantuml">'
                + _escape(_submachine_puml(details.submachine))
                + "</pre>"
            )
        else:
            parts.append("<p>No state machine available for the involved services.</p>")
        parts.append("<h3>Most frequent calls</h3>")
        parts.append(_calls_table(details.frequent_calls))
    else:
        parts.append("<h3>Code pointer</h3>")
        if details.code_pointer is not None:
            cp = details.code_pointer
            parts.append(f"<p><code>{_escape(cp.file)}:{cp.line}</code></p>")
            if cp.snippet:
                parts.append(f"<pre>{_escape(cp.snippet)}</pre>")
        else:
            parts.append(f"<p>{NO_TRACEABILITY}</p>")
        parts.append("<h3>Expected trigger sequence</h3>")
        if details.trigger_sequence:
            parts.append("<ol>")
            for flow in details.trigger_sequence:
                parts.append(
                    f"<li>{_escape(flow.sender)} → {_escape(flow.receiver)}</li>"
                )
            parts.append("</ol>")
        else:
            parts.append("<p>No trigger sequence could be reconstructed.</p>")
        parts.append("<h3>Call details</h3>")
        parts.append(_calls_table(details.call_details))
    return _page(nc.id, parts)


def page_filename(nc_id: str) -> str:
    return f"nc_{nc_id}.html"


def render_index(ncs: list[NonConformance], architecture_puml: str) -> str:
    """Index page: counts by kind, links to every page, embedded diagram."""
    n_static = sum(1 for nc in ncs if nc.kind is NcKind.Static)
    n_dynamic = sum(1 for nc in ncs if nc.kind is NcKind.Dynamic)
    parts = ["<h1>Conformance analysis report</h1>"]
    if ncs:
        parts.append(
            f"<p>Detected <strong>{n_static} static</strong> and "
            f"<strong>{n_dynamic} dynamic</strong> non-conformances.</p>"
        )
        parts.append("<ul>")
        for nc in ncs:
            label, _defn = _DEFINITIONS[nc.kind]
            parts.append(
                f'<li><a href="{page_filename(nc.id)}">{_escape(nc.id)}</a>'
                f" ({label}, {_escape(_describe_subject(nc))})</li>"
            )
        parts.append("</ul>")
    else:
        parts.append(
            "<p>The deployment fully conforms to the implementation: "
            "no non-conformances were detected.</p>"
        )
    parts.append("<h2>Architecture</h2>")
    parts.append('<pre class="plantuml">' + _escape(architecture_puml) + "</pre>")
    return _page("Conformance analysis report", parts)


def render_bundle(
    tv: TaggedView, ncs: list[NonConformance],
    details: Iterable[tuple[NonConformance, NcDetails]],
    put: Callable[[str, bytes], None],
) -> None:
    """Hand the report bundle to ``put`` as each file's name and UTF-8
    bytes: the architecture diagram, the index page, then one page per pair
    of ``details``, each finding with its details, in the order given
    (``finding_details`` gives id order).

    Each file is encoded as soon as it is rendered and put at once, and each
    finding's details are dropped before the next finding's are asked for,
    so no page, in text or in bytes, and no sub-machine outlives its turn. A
    text that cannot be encoded raises ``InputError``, naming the first such
    file, after the files before it were put."""
    puml = render_architecture_puml(tv)
    put("architecture.puml", encode_utf8("architecture.puml", puml))
    put("index.html", encode_utf8("index.html", render_index(ncs, puml)))
    for nc, nc_details in details:
        name = page_filename(nc.id)
        put(name, encode_utf8(name, render_nc_page(nc, nc_details)))
        del nc_details  # dead before the next finding's details are made
