"""Parsers for the declarative data files the engine ships with.

All four formats are line oriented; blank lines and `#` comments are
ignored and every error carries the offending line number.

Rule file (one rule per line)::

    rule <name> <weight>: <premise>{, <premise>} [| <guard>{, <guard>}] -> <atom>

    premise  :=  atom[@T | @S | @C]          # optional dimension tag
    atom     :=  relation(term, term)
    term     :=  ?variable | symbol | number
    guard    :=  term <op> term              # op in  <  <=  >  >=  ==  !=

Composition table::

    compose <relation> <relation> -> <relation>

Exclusion pairs (mutually exclusive opposites, e.g. LeftOf/RightOf)::

    opposite <relation> <relation>

Affordance lexicon::

    affords <category> <function> [<function> ...]
"""

from __future__ import annotations

import re

from .kb import Atom, Guard, Rule, ValidationError, parse_literal

_ATOM_RE = re.compile(
    r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*\(\s*([^,()\s]+)\s*,\s*([^,()\s]+)\s*\)\s*(?:@([TSC]))?\s*$"
)
_GUARD_RE = re.compile(r"^\s*([^\s<>=!]+)\s*(<=|>=|==|!=|<|>)\s*([^\s<>=!]+)\s*$")

_DIM_NAMES = {"T": "temporal", "S": "spatial", "C": "conceptual"}


class RuleFileError(ValidationError):
    def __init__(self, message: str, line_no: int | None = None, path: str | None = None):
        where = ""
        if path:
            where += path
        if line_no is not None:
            where += f":{line_no}"
        super().__init__(f"{where}: {message}" if where else message)
        self.line_no = line_no
        self.path = path


def _iter_lines(text: str):
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line_no, line


def parse_atom(text: str, line_no: int | None = None, path: str | None = None) -> Atom:
    match = _ATOM_RE.match(text)
    if not match:
        raise RuleFileError(f"cannot parse atom {text!r}", line_no, path)
    relation, subject, obj, dim = match.groups()
    return Atom(
        relation=relation,
        subject=parse_literal(subject),
        obj=parse_literal(obj),
        dim=_DIM_NAMES[dim] if dim else None,
    )


def _parse_guard(text: str, line_no: int, path: str | None) -> Guard:
    match = _GUARD_RE.match(text)
    if not match:
        raise RuleFileError(f"cannot parse guard {text!r}", line_no, path)
    left, op, right = match.groups()
    return Guard(left=parse_literal(left), op=op, right=parse_literal(right))


def _split_atoms(text: str) -> list[str]:
    # split on commas that sit outside parentheses
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return [p for p in (p.strip() for p in parts) if p]


def parse_rule_line(line: str, line_no: int = 0, path: str | None = None) -> Rule:
    if not line.startswith("rule "):
        raise RuleFileError(f"expected 'rule', got {line!r}", line_no, path)
    head, _, rest = line[5:].partition(":")
    head_parts = head.split()
    if len(head_parts) != 2:
        raise RuleFileError("rule header must be 'rule <name> <weight>:'", line_no, path)
    name, weight_text = head_parts
    try:
        weight = float(weight_text)
    except ValueError:
        raise RuleFileError(f"bad rule weight {weight_text!r}", line_no, path) from None
    body, arrow, conclusion_text = rest.partition("->")
    if not arrow:
        raise RuleFileError("rule body must contain '->'", line_no, path)
    premise_text, bar, guard_text = body.partition("|")
    premises = tuple(parse_atom(p, line_no, path) for p in _split_atoms(premise_text))
    guards = tuple(_parse_guard(g, line_no, path) for g in _split_atoms(guard_text)) if bar else ()
    conclusion = parse_atom(conclusion_text.strip(), line_no, path)
    rule = Rule(name=name, premises=premises, conclusion=conclusion, weight=weight, guards=guards)
    try:
        rule.validate()
    except ValidationError as exc:
        raise RuleFileError(str(exc), line_no, path) from exc
    return rule


def parse_rules(text: str, path: str | None = None) -> list[Rule]:
    rules = []
    names = set()
    for line_no, line in _iter_lines(text):
        rule = parse_rule_line(line, line_no, path)
        if rule.name in names:
            raise RuleFileError(f"duplicate rule name {rule.name!r}", line_no, path)
        names.add(rule.name)
        rules.append(rule)
    return rules


def parse_hazard_rules(text: str, path: str | None = None) -> list[Rule]:
    """Hazard rules must tag premises and span at least two dimensions."""
    rules = parse_rules(text, path)
    for rule in rules:
        untagged = [str(p) for p in rule.premises if p.dim is None]
        if untagged:
            raise RuleFileError(
                f"hazard rule {rule.name}: premises missing dimension tags: {untagged}",
                path=path,
            )
        if len(rule.dimensions()) < 2:
            raise RuleFileError(
                f"hazard rule {rule.name}: premises must span at least two "
                f"dimensions, got {sorted(rule.dimensions())}",
                path=path,
            )
    return rules


def parse_composition(text: str, path: str | None = None) -> dict[tuple[str, str], str]:
    table: dict[tuple[str, str], str] = {}
    for line_no, line in _iter_lines(text):
        parts = line.split()
        if len(parts) != 5 or parts[0] != "compose" or parts[3] != "->":
            raise RuleFileError(
                "expected 'compose <rel> <rel> -> <rel>'", line_no, path
            )
        key = (parts[1], parts[2])
        if key in table:
            raise RuleFileError(f"duplicate composition entry {key}", line_no, path)
        table[key] = parts[4]
    return table


def parse_exclusions(text: str, path: str | None = None) -> list[tuple[str, str]]:
    pairs: list[tuple[str, str]] = []
    for line_no, line in _iter_lines(text):
        parts = line.split()
        if len(parts) != 3 or parts[0] != "opposite":
            raise RuleFileError("expected 'opposite <rel> <rel>'", line_no, path)
        pairs.append((parts[1], parts[2]))
    return pairs


def parse_lexicon(text: str, path: str | None = None) -> dict[str, tuple[str, ...]]:
    lexicon: dict[str, tuple[str, ...]] = {}
    for line_no, line in _iter_lines(text):
        parts = line.split()
        if len(parts) < 3 or parts[0] != "affords":
            raise RuleFileError(
                "expected 'affords <category> <function> [...]'", line_no, path
            )
        category = parts[1]
        if category in lexicon:
            raise RuleFileError(f"duplicate lexicon entry {category!r}", line_no, path)
        lexicon[category] = tuple(parts[2:])
    return lexicon


def load_rules(path: str) -> list[Rule]:
    return parse_rules(_read(path), path)


def load_composition(path: str) -> dict[tuple[str, str], str]:
    return parse_composition(_read(path), path)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()
