"""The unit of lint output: one :class:`Finding` at one source location.

Findings are frozen, totally ordered dataclasses.  The ordering — path,
then line, then column, then rule id, then message — is the *only* order
findings are ever reported in, so two runs of the linter over the same
tree produce byte-identical output regardless of filesystem enumeration,
rule registration order or scheduling.  The linter polices exactly that
property in the rest of the code base; it must hold itself to it first.
"""

from __future__ import annotations

import dataclasses

__all__ = ["Finding"]


@dataclasses.dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one location.

    ``path`` is the file as the caller named it (normalized to ``/``
    separators), ``line`` is 1-based (0 for whole-file findings such as
    spec-document errors), ``column`` is 0-based as in :mod:`ast`.
    """

    path: str
    line: int
    column: int
    rule: str
    message: str

    def location(self) -> str:
        """``path:line:column`` — the prefix of the text report line."""
        return f"{self.path}:{self.line}:{self.column}"

    def render(self) -> str:
        """One text-report line: ``path:line:col: RULE message``."""
        return f"{self.location()}: {self.rule} {self.message}"

    def to_dict(self) -> dict:
        """Plain-dict form for the JSON reporter."""
        return dataclasses.asdict(self)
