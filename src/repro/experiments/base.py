"""Common experiment result structure and table rendering."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass
class ExperimentResult:
    """A reproduced table or figure, as printable rows.

    ``notes`` carries headline scalars (and paper-reference values where
    the paper states them) so EXPERIMENTS.md and the shape gates
    (:mod:`repro.validate.gates`) can read them without parsing the table
    text.
    """

    experiment_id: str
    title: str
    headers: list[str]
    rows: list[list[Any]]
    notes: dict[str, Any] = field(default_factory=dict)

    def to_text(self) -> str:
        """Render as an aligned plain-text table."""
        widths = [len(str(h)) for h in self.headers]
        rendered_rows = []
        for row in self.rows:
            rendered = [_fmt(cell) for cell in row]
            rendered_rows.append(rendered)
            for index, cell in enumerate(rendered):
                if index < len(widths):
                    widths[index] = max(widths[index], len(cell))
        lines = [f"== {self.experiment_id}: {self.title} =="]
        lines.append("  ".join(str(h).ljust(w) for h, w in zip(self.headers, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for rendered in rendered_rows:
            lines.append("  ".join(c.ljust(w) for c, w in zip(rendered, widths)))
        if self.notes:
            lines.append("")
            for key in sorted(self.notes):
                lines.append(f"  note {key}: {_fmt(self.notes[key])}")
        return "\n".join(lines)


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.3f}" if abs(value) < 1000 else f"{value:.1f}"
    return str(value)
