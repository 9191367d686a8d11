"""Final-answer extraction, answer equivalence, and self-consistency voting.

Equivalence is deliberately scoped to decimals and simple fractions; anything
unparseable, and nan, falls back to exact string comparison. Symbolic math
equality is out of scope here. No answer is expanded exactly: a decimal beyond
float range compares as +-inf, and a fraction a/b only parses with at most 300
digits a side.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass

from .core import DatasetKind

_NUMERIC_RE = re.compile(
    r"the answer is\s*:?\s*\$?(-?[\d,]+(?:\.\d+)?(?:\s*/\s*\d+)?)", re.IGNORECASE
)
_CHOICE_RE = re.compile(r"the answer is\s*:?\s*\(?([A-Ja-j])\)?(?![A-Za-z])", re.IGNORECASE)
_YESNO_RE = re.compile(r"the answer is\s*:?\s*(yes|no)\b", re.IGNORECASE)
_BARE_YESNO_RE = re.compile(r"\b(yes|no)\b", re.IGNORECASE)
_FRAC_RE = re.compile(r"\\d?frac\s*\{([^{}]*)\}\s*\{([^{}]*)\}")
_RATIO_RE = re.compile(r"[-+]?\d{1,300}/\d{1,300}")  # a / b of these is a finite float
_BAR_RE = re.compile(r"\s*/\s*")


def _innermost_boxed(text: str) -> str | None:
    """Content of the last boxed{...}; nested boxes resolve to the innermost."""
    idx = text.rfind("boxed")
    if idx < 0:
        return None
    brace = text.find("{", idx)
    if brace < 0:
        return None
    depth = 0
    for i in range(brace, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                content = text[brace + 1 : i].strip()
                inner = _innermost_boxed(content)
                return inner if inner is not None else content
    return None  # unbalanced braces: no valid marker


def extract_answer(text: str, kind: DatasetKind) -> str | None:
    """Pull the final answer out of a completion; None when no marker is found.

    The last occurrence always wins. YES_NO accepts a bare trailing yes/no
    token as a fallback, since direct prompts ask for exactly that ending.
    """
    if kind is DatasetKind.MATH_BOXED:
        return _innermost_boxed(text)
    if kind is DatasetKind.ELEMENTARY_MATH_NUMERIC:
        matches = _NUMERIC_RE.findall(text)
        return matches[-1].strip() if matches else None
    if kind is DatasetKind.MULTIPLE_CHOICE:
        matches = _CHOICE_RE.findall(text)
        return matches[-1].upper() if matches else None
    if kind is DatasetKind.YES_NO:
        matches = _YESNO_RE.findall(text)
        if matches:
            return matches[-1].lower()
        lines = [ln for ln in text.strip().splitlines() if ln.strip()]
        if lines:
            bare = _BARE_YESNO_RE.findall(lines[-1])
            if bare:
                return bare[-1].lower()
        return None
    raise ValueError(f"unknown dataset kind: {kind!r}")


def _normalize_numeric(value: str) -> str:
    s = value.strip()
    s = s.strip("$")
    if s.startswith("\\(") and s.endswith("\\)"):
        s = s[2:-2].strip()
    while s.startswith("{") and s.endswith("}"):
        s = s[1:-1].strip()
    s = _FRAC_RE.sub(lambda m: f"{m.group(1)}/{m.group(2)}", s)
    s = _BAR_RE.sub("/", s)
    s = s.replace(",", "").rstrip(".").strip()
    return s


def _parse_number(value: str) -> float | None:
    s = _normalize_numeric(value)
    if _RATIO_RE.fullmatch(s):
        num, den = (int(part) for part in s.split("/"))
        return num / den if den else None
    try:
        x = float(s)
    except ValueError:
        return None
    return None if math.isnan(x) else x  # nan equals nothing, so it compares as text


def answers_equivalent(a: str, b: str, kind: DatasetKind) -> bool:
    """Dataset-aware equality: numeric tolerance 1e-9, case-blind otherwise."""
    if kind in (DatasetKind.MULTIPLE_CHOICE, DatasetKind.YES_NO):
        return a.strip().casefold() == b.strip().casefold()
    xa, xb = _parse_number(a), _parse_number(b)
    if xa is not None and xb is not None:
        return math.isclose(xa, xb, rel_tol=1e-9, abs_tol=1e-12)
    return _normalize_numeric(a) == _normalize_numeric(b)


@dataclass(frozen=True)
class VoteResult:
    """Outcome of a majority vote over answer equivalence classes."""

    winner: str  # representative: the first-seen member of the winning class
    tie_broken: bool
    index: int  # the winner's position in the answers voted on


def majority_vote(answers: list[str], kind: DatasetKind, seed: int = 0) -> VoteResult:
    """Largest equivalence class wins; ties break by a seeded uniform choice."""
    if not answers:
        raise ValueError("majority_vote needs at least one answer")
    firsts: list[int] = []  # each class's first-seen member, by position in answers
    counts: list[int] = []
    for pos, ans in enumerate(answers):
        for i, first in enumerate(firsts):
            if answers_equivalent(ans, answers[first], kind):
                counts[i] += 1
                break
        else:
            firsts.append(pos)
            counts.append(1)
    best = max(counts)
    tied = [first for first, c in zip(firsts, counts) if c == best]
    tie_broken = len(tied) > 1
    index = tied[0] if not tie_broken else random.Random(seed).choice(tied)
    return VoteResult(winner=answers[index], tie_broken=tie_broken, index=index)
