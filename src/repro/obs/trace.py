"""Lightweight span tracing: a timing tree over pipeline phases.

``with span("pipeline.build_study"): ...`` opens a node under the
currently active span (or a new root) and records its wall-clock duration
on exit. The tree is coarse — phases, experiments, per-VP sweeps — never
per-flow, so it can stay on for every run. A span that times exactly
what a layerbench metric times is named after that metric's prefix.

Pool workers each build their own tree; :mod:`repro.util.parallel`
serializes worker trees alongside results and the parent grafts them
under its active span **in input order**, so the merged tree's shape is
identical whatever ``--jobs`` was (only durations differ). When tracing
is disabled (the default for library use) ``span`` is a single flag
check and records nothing.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator


@dataclass
class Span:
    """One timed phase; ``meta`` carries small scalar annotations."""

    name: str
    meta: dict[str, object] = field(default_factory=dict)
    duration_s: float | None = None
    children: list["Span"] = field(default_factory=list)

    def to_dict(self) -> dict[str, object]:
        node: dict[str, object] = {"name": self.name}
        if self.meta:
            node["meta"] = dict(self.meta)
        if self.duration_s is not None:
            node["duration_s"] = round(self.duration_s, 4)
        if self.children:
            node["children"] = [child.to_dict() for child in self.children]
        return node

    @staticmethod
    def from_dict(node: dict[str, object]) -> "Span":
        return Span(
            name=str(node["name"]),
            meta=dict(node.get("meta", {})),  # type: ignore[arg-type]
            duration_s=node.get("duration_s"),  # type: ignore[arg-type]
            children=[Span.from_dict(c) for c in node.get("children", ())],  # type: ignore[union-attr]
        )


_enabled = False
_roots: list[Span] = []
_stack: list[Span] = []


def enabled() -> bool:
    return _enabled


def set_enabled(value: bool) -> None:
    global _enabled
    _enabled = bool(value)


def reset() -> None:
    """Drop all recorded spans (keeps the enabled flag)."""
    _roots.clear()
    _stack.clear()


@contextmanager
def span(name: str, **meta: object) -> Iterator[Span | None]:
    """Time a phase as a child of the active span (no-op when disabled)."""
    if not _enabled:
        yield None
        return
    node = Span(name=name, meta=dict(meta))
    if _stack:
        _stack[-1].children.append(node)
    else:
        _roots.append(node)
    _stack.append(node)
    start = time.perf_counter()
    try:
        yield node
    finally:
        node.duration_s = time.perf_counter() - start
        _stack.pop()


def current() -> Span | None:
    return _stack[-1] if _stack else None


def attach_subtrees(subtrees: list[dict[str, object]]) -> None:
    """Graft serialized worker trees under the active span (input order)."""
    if not _enabled or not subtrees:
        return
    parent = _stack[-1].children if _stack else _roots
    for node in subtrees:
        parent.append(Span.from_dict(node))


def tree() -> list[dict[str, object]]:
    """The recorded forest as plain dicts (JSON- and pickle-friendly)."""
    return [root.to_dict() for root in _roots]


def shape(nodes: list[dict[str, object]] | None = None) -> list:
    """Names-only skeleton of the tree — the determinism invariant.

    Durations vary run to run; the *shape* (names and nesting, in order)
    must not depend on ``--jobs`` or cache state.
    """
    if nodes is None:
        nodes = tree()
    return [
        [node["name"], shape(node.get("children", []))]  # type: ignore[arg-type]
        for node in nodes
    ]


def render(
    nodes: list[dict[str, object]] | None = None,
    indent: int = 0,
    parent_duration_s: float | None = None,
) -> str:
    """ASCII tree with durations and percent-of-parent, for ``--trace``.

    Each span with a duration shows it, and — when its parent also has
    one — what fraction of the parent's wall-clock it accounts for, so
    the terminal output answers "where did the time go" directly.
    """
    if nodes is None:
        nodes = tree()
    lines: list[str] = []
    for node in nodes:
        duration = node.get("duration_s")
        stamp = ""
        if duration is not None:
            stamp = f"  {float(duration):8.3f}s"
            if parent_duration_s:
                share = 100.0 * float(duration) / parent_duration_s
                stamp += f" ({share:5.1f}%)"
        meta = node.get("meta") or {}
        suffix = (
            "  [" + ", ".join(f"{k}={v}" for k, v in meta.items()) + "]"
            if meta
            else ""
        )
        lines.append(f"{'  ' * indent}{node['name']}{stamp}{suffix}")
        children = node.get("children")
        if children:
            lines.append(
                render(
                    children,
                    indent + 1,
                    parent_duration_s=float(duration) if duration else None,
                )
            )
    return "\n".join(lines)
