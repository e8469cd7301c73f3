"""metric-catalogue: instrument and span names resolve to the catalogue.

Observability names live in exactly one place,
src/common/obs/metric_names.h, so a name cannot fork into two spellings
("edge.server.queue_depth" here, "edge.server.queue.depth" there) that
dashboards then miss. At every registration site --

  * Registry::counter/gauge/histogram member calls,
  * construction of a named instrument (obs::Span)

-- the name argument must be a reference to a declared constant, not a
string literal. The check walks the *whole* TU rather than function
bodies: default member initializers (how EdgeServer binds its
instruments to its registry) live in class definitions, outside any
body.

Unlike the regex `metric-name` rule this is call-shape-aware: it sees a
literal smuggled through std::string temporaries and implicit casts,
does not care about line breaks between the callee and its argument,
and extends to span names, which the regex rule never covered.
"""

from __future__ import annotations

from ..astjson import Node, call_args, callee_name, node_file, node_line, walk
from ..findings import CheckConfig, Finding
from ..index import TuIndex


def _literal_in(expr) -> Node | None:
    """A StringLiteral anywhere in the argument subtree (literals reach
    registration sites through std::string conversions and casts)."""
    if expr is None:
        return None
    for n in walk(expr):
        if n.get("kind") == "StringLiteral":
            return n
    return None


def _in_scope(file: str, cfg: CheckConfig) -> bool:
    if not file.startswith(cfg.catalogue_scope):
        return False
    return file not in cfg.catalogue_exempt_files


def _instrument_type(qt: str, cfg: CheckConfig) -> str | None:
    head = qt.removeprefix("const ").split("<", 1)[0]
    for t in cfg.named_instrument_types:
        if head == t or head.endswith("::" + t):
            return t
    return None


def run(indexes: list[TuIndex], cfg: CheckConfig) -> list[Finding]:
    findings: list[Finding] = []
    for idx in indexes:
        for node in walk(idx.root):
            file = node_file(node)
            if not file or not _in_scope(file, cfg):
                continue
            kind = node.get("kind")
            if kind == "CXXMemberCallExpr":
                name = callee_name(node)
                if name not in cfg.registration_members:
                    continue
                args = call_args(node)
                lit = _literal_in(args[0] if args else None)
                if lit is not None:
                    findings.append(Finding(
                        check="metric-catalogue",
                        file=file,
                        line=node_line(lit) or node_line(node),
                        symbol=name,
                        message=(
                            f"string literal passed to {name}() at an "
                            "instrument registration -- use a constant "
                            "from common/obs/metric_names.h"),
                    ))
            elif kind == "CXXConstructExpr":
                inst = _instrument_type(
                    (node.get("type") or {}).get("qualType", ""), cfg)
                if inst is None:
                    continue
                lit = _literal_in(node.get("inner"))
                if lit is not None:
                    findings.append(Finding(
                        check="metric-catalogue",
                        file=file,
                        line=node_line(lit) or node_line(node),
                        symbol=inst,
                        message=(
                            f"string literal names a {inst} -- use a "
                            "constant from common/obs/metric_names.h"),
                    ))
    return findings
