#!/usr/bin/env python3
"""Fail on dead links, phantom CLI flags and stale environment
variables in the markdown docs.

Independent checks over README.md, the other top-level markdown
documents, and docs/*.md (CLI mentions in prose and environment
variables only in :data:`INLINE_DOCS`):

**Links** — every ``[text](target)``:

* relative file targets must exist (resolved against the linking file);
* ``#fragment`` anchors — bare or attached to a file target — must
  match a heading in the target document, using GitHub's slug rules
  (lowercase, punctuation stripped, spaces to hyphens);
* absolute URLs (``http(s)://``, ``mailto:``) are not checked.

For link checking, fenced code blocks and inline code spans are
ignored, so example snippets cannot produce false positives.

**CLI quickstarts** — every ``gatest`` / ``python -m repro.cli``
invocation inside a fenced ``bash``/``sh``/``shell``/``console``
block, and every ``python -m repro.harness.experiments`` one (read as
``gatest experiments``), is parsed (``$ `` prompts, ``#`` comments, line continuations,
env-var prefixes and ``--opt=value`` all handled) and verified
against the real argparse parsers (``repro.cli.build_parser`` and
``repro.harness.experiments.build_parser``): the subcommand must
exist, every ``--flag`` must be one that subcommand accepts, the
value of every option that declares argparse ``choices`` (``--opt
value`` or ``--opt=value``) must be one of them, and a ``gatest run``
invocation may give only the engine-specific flags its ``--engine``
reads (``repro.cli.unread_run_flags``, the rule ``gatest run`` itself
applies).  A doc that quotes a
renamed or deleted flag or value fails the build instead of
misleading readers.  Inline code spans that quote an invocation
(`` `gatest run s27 --seed 1` ``), including spans that wrap onto the
next line, get the same check in README.md, DESIGN.md, EXPERIMENTS.md
and docs/*.md, and there a bare flag span (`` `--eval-jobs N` ``)
must name a flag that some ``gatest`` subcommand (``experiments``
included) defines; its value is not checked, since the span names no
subcommand.  ROADMAP.md and CHANGES.md are skipped, because they
hold plans and history, which may name commands that do not exist
(yet, or any more).

**Config fields** — an inline code span in :data:`INLINE_DOCS` that
calls ``TestGenConfig(...)`` may pass only keywords that are fields of
the real dataclass (``repro.core.config.TestGenConfig``), so a doc
that quotes a renamed or deleted field fails instead of documenting a
call that raises ``TypeError``.

**Environment variables** — every ``REPRO_`` name in
:data:`INLINE_DOCS` and in the CI workflow (:data:`ENV_DOCS`) must
appear in some file under src/, benchmarks/ or tools/
(:data:`ENV_SOURCES`): a doc that names a deleted variable fails
instead of telling readers to set something nothing reads.  A name
cut short by a wildcard (a ``_*`` suffix) is not checked.

**Benchmark quotes** — every quote of a committed benchmark snapshot
listed in :data:`BENCH_QUOTES` (``BENCH_SIMULATOR.json``'s speedup and
interp/codegen seconds, ``BENCH_SERVICE.json``'s speedup and cold/warm
seconds) must be found once in its document and equal its field,
rounded as quoted.  A regenerated snapshot therefore fails the build
until the docs quote its numbers.

Exit status 0 when everything resolves, 1 otherwise (one diagnostic
line per problem) — CI runs this, and tests/test_docs.py keeps it in
the tier-1 suite.

Usage: python tools/check_doc_links.py [repo_root]
"""

from __future__ import annotations

import argparse
import json
import re
import shlex
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: Documents checked: top-level markdown plus everything under docs/.
DOC_GLOBS = ("*.md", "docs/*.md")

#: Documents whose inline code spans are checked as CLI invocations.
INLINE_DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/*.md")

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
_FENCE = re.compile(r"^(```|~~~)")
_CODE_SPAN = re.compile(r"`[^`]*`")
_HEADING = re.compile(r"^#{1,6}\s+(.*)$")


def _slug(heading: str) -> str:
    """GitHub-style anchor slug for one heading line."""
    text = _CODE_SPAN.sub(lambda m: m.group(0).strip("`"), heading)
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", text)  # unwrap links
    text = text.strip().lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def _strip_fences(lines: List[str]) -> List[str]:
    """Blank out fenced code blocks, fence lines included."""
    out: List[str] = []
    in_fence = False
    for line in lines:
        if _FENCE.match(line.strip()):
            in_fence = not in_fence
            out.append("")
            continue
        out.append("" if in_fence else line)
    return out


def _strip_code(lines: List[str]) -> List[str]:
    """Blank out fenced code blocks and inline code spans."""
    return [_CODE_SPAN.sub("", line) for line in _strip_fences(lines)]


def _anchors(path: Path) -> set:
    """All heading slugs in one markdown file (duplicate-suffix aware).

    Headings are taken from outside fenced blocks only, but inline code
    spans keep their *content* — GitHub slugs ``## Foo (`bar baz`)`` as
    ``foo-bar-baz``, so stripping span text would under-slug.
    """
    slugs: set = set()
    counts: dict = {}
    for line in _strip_fences(path.read_text(encoding="utf-8").splitlines()):
        match = _HEADING.match(line)
        if not match:
            continue
        slug = _slug(match.group(1))
        n = counts.get(slug, 0)
        counts[slug] = n + 1
        slugs.add(slug if n == 0 else f"{slug}-{n}")
    return slugs


def check_file(path: Path, root: Path) -> List[Tuple[int, str, str]]:
    """All dead links in one file as (line, target, reason) tuples."""
    dead: List[Tuple[int, str, str]] = []
    lines = _strip_code(path.read_text(encoding="utf-8").splitlines())
    for lineno, line in enumerate(lines, start=1):
        for match in _LINK.finditer(line):
            target = match.group(1)
            if re.match(r"^[a-z][a-z0-9+.-]*:", target):  # URL scheme
                continue
            file_part, _, fragment = target.partition("#")
            resolved = (
                path if not file_part else (path.parent / file_part).resolve()
            )
            if file_part and not resolved.exists():
                dead.append((lineno, target, "missing file"))
                continue
            if fragment and resolved.suffix == ".md":
                if fragment not in _anchors(resolved):
                    dead.append((lineno, target, "missing anchor"))
    return dead


# ----------------------------------------------------------------------
# CLI quickstart verification
# ----------------------------------------------------------------------

#: Fence info strings whose blocks are treated as shell transcripts.
SHELL_FENCES = {"bash", "sh", "shell", "console"}

_FENCE_OPEN = re.compile(r"^(```|~~~)\s*([A-Za-z0-9_+-]*)")
_ENV_ASSIGN = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*=")
_BARE_FLAG = re.compile(r"--[A-Za-z][A-Za-z0-9-]*")
_SEPARATORS = {"|", "||", "&&", ";", "&"}

#: option string -> its argparse ``choices`` as strings (None: any value).
Options = Dict[str, Optional[List[str]]]


def _cli_parsers(root: Path) -> Dict[str, Options]:
    """subcommand name -> its accepted :data:`Options`, from the real
    parsers.

    Imports the package from ``root/src`` directly so the check works
    without an installed package or ``PYTHONPATH`` (the CI docs job
    runs it on a bare checkout).
    """
    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from repro.cli import build_parser as cli_parser
    from repro.harness.experiments import build_parser as experiments_parser

    def options(parser: argparse.ArgumentParser) -> Options:
        return {
            option: (
                None if action.choices is None
                else [str(choice) for choice in action.choices]
            )
            for action in parser._actions
            for option in action.option_strings
        }

    commands: Dict[str, Options] = {}
    for action in cli_parser()._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                commands[name] = options(sub)
    # ``experiments`` is dispatched before argparse parsing (see
    # repro.cli.main); its real flag set lives in the harness parser.
    commands["experiments"] = options(experiments_parser())
    return commands


def _shell_blocks(raw_lines: List[str]) -> List[Tuple[int, str]]:
    """(lineno, logical command line) pairs from shell-fenced blocks.

    Handles ``$ `` prompts (console transcripts: non-prompt lines are
    output and skipped), ``#`` comments, and backslash continuations.
    """
    commands: List[Tuple[int, str]] = []
    in_block = False
    is_console = False
    pending: Tuple[int, str] = (0, "")
    for lineno, raw in enumerate(raw_lines, start=1):
        fence = _FENCE_OPEN.match(raw.strip())
        if fence and not in_block:
            in_block = fence.group(2).lower() in SHELL_FENCES
            is_console = fence.group(2).lower() == "console"
            continue
        if fence and in_block:
            in_block = False
            continue
        if not in_block:
            continue
        line = raw.strip()
        if pending[1]:
            line = pending[1] + " " + line
            start = pending[0]
            pending = (0, "")
        else:
            if is_console:
                if not line.startswith("$"):
                    continue  # transcript output, not a command
                line = line.lstrip("$ ")
            elif line.startswith("$"):
                line = line.lstrip("$ ")
            start = lineno
        if line.endswith("\\"):
            pending = (start, line[:-1].strip())
            continue
        line = re.sub(r"(^|\s)#.*$", "", line).strip()
        if line:
            commands.append((start, line))
    return commands


def _gatest_invocations(tokens: List[str]) -> List[List[str]]:
    """Argument vectors of every gatest invocation in one command line;
    ``python -m repro.harness.experiments ARGS`` is ``gatest experiments
    ARGS``."""
    invocations: List[List[str]] = []
    i = 0
    while i < len(tokens):
        token = tokens[i]
        argv: List[str] = []
        module = tokens[i + 1 : i + 3] if token.startswith("python") else []
        if token == "gatest":
            i += 1
        elif module == ["-m", "repro.cli"]:
            i += 3
        elif module == ["-m", "repro.harness.experiments"]:
            argv.append("experiments")
            i += 3
        else:
            i += 1
            continue
        while i < len(tokens) and tokens[i] not in _SEPARATORS:
            argv.append(tokens[i])
            i += 1
        invocations.append(argv)
    return invocations


def _inline_spans(raw_lines: List[str]) -> List[Tuple[int, str]]:
    """(lineno, text) of every inline code span outside fenced blocks.

    Spans are matched per paragraph, so a span that wraps onto the
    next line is found whole (its line break read as a space); the
    line number is the one the span starts on.
    """
    spans: List[Tuple[int, str]] = []
    kept = _strip_fences(raw_lines)
    block: List[str] = []
    start = 0
    for lineno, line in enumerate(kept + [""], start=1):
        if line.strip():
            if not block:
                start = lineno
            block.append(line)
            continue
        text = "\n".join(block)
        for match in _CODE_SPAN.finditer(text):
            spans.append((start + text.count("\n", 0, match.start()),
                          match.group(0).strip("`").replace("\n", " ")))
        block = []
    return spans


def check_cli_blocks(
    path: Path, commands: Dict[str, Options], inline_code: bool = False
) -> List[Tuple[int, str, str]]:
    """Phantom subcommands, flags and choice values, and ``gatest run``
    flags the chosen engine does not read, in one file's shell blocks
    and, with ``inline_code``, its inline code spans."""
    # Importable once _cli_parsers has put <root>/src on the path.
    from repro.cli import unread_run_flags

    problems: List[Tuple[int, str, str]] = []
    raw_lines = path.read_text(encoding="utf-8").splitlines()
    lines = _shell_blocks(raw_lines)
    if inline_code:
        spans = _inline_spans(raw_lines)
        lines += spans
        defined = {flag for options in commands.values() for flag in options}
        for lineno, text in spans:
            bare = _BARE_FLAG.match(text)
            if bare and bare.group(0) not in defined:
                problems.append(
                    (lineno, bare.group(0), "flag defined by no gatest command")
                )
    for lineno, line in lines:
        # Drop env-var prefixes so `VAR=x gatest run` parses.
        try:
            tokens = shlex.split(line)
        except ValueError:
            continue  # unbalanced quotes: prose, not a command
        while tokens and _ENV_ASSIGN.match(tokens[0]):
            tokens.pop(0)
        for argv in _gatest_invocations(tokens):
            positionals = [t for t in argv if not t.startswith("-")]
            if not positionals:
                continue
            subcommand = positionals[0]
            if subcommand not in commands:
                problems.append(
                    (lineno, subcommand, "unknown gatest subcommand")
                )
                continue
            accepted = commands[subcommand]
            args = argv[1:]
            given: List[str] = []
            engine = "ga"
            for i, token in enumerate(args):
                if token == "--":
                    break
                if not token.startswith("-") or token == "-":
                    continue
                flag, inline, value = token.partition("=")
                if re.fullmatch(r"-\d+(\.\d+)?", flag):
                    continue  # negative number, not a flag
                if flag not in accepted:
                    problems.append(
                        (lineno, flag,
                         f"flag not accepted by 'gatest {subcommand}'")
                    )
                    continue
                given.append(flag)
                choices = accepted[flag]
                if choices is None:
                    continue
                if not inline:
                    value = args[i + 1] if i + 1 < len(args) else ""
                if value and value not in choices:
                    problems.append(
                        (lineno, f"{flag} {value}",
                         f"value not among {flag} choices "
                         f"{', '.join(choices)}")
                    )
                elif flag == "--engine" and value:
                    engine = value
            if subcommand == "run":
                for flag in unread_run_flags(engine, given):
                    problems.append(
                        (lineno, flag,
                         f"flag not read by 'gatest run --engine {engine}'")
                    )
    return problems


# ----------------------------------------------------------------------
# TestGenConfig keywords in inline code
# ----------------------------------------------------------------------

_CONFIG_CALL = re.compile(r"\bTestGenConfig\(")
_NESTED = re.compile(r"\([^()]*\)")
_KEYWORD = re.compile(r"(?:^|,)\s*([A-Za-z_]\w*)\s*=(?!=)")


def _config_fields(root: Path) -> set:
    """The field names of the real ``TestGenConfig`` under ``root/src``."""
    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from dataclasses import fields

    from repro.core.config import TestGenConfig

    return {f.name for f in fields(TestGenConfig)}


def check_config_spans(path: Path, known: set) -> List[Tuple[int, str, str]]:
    """(line, quote, reason) for every keyword an inline
    ``TestGenConfig(...)`` span passes that is not in ``known``."""
    problems: List[Tuple[int, str, str]] = []
    raw_lines = path.read_text(encoding="utf-8").splitlines()
    for lineno, text in _inline_spans(raw_lines):
        for call in _CONFIG_CALL.finditer(text):
            args = text[call.end():]
            while _NESTED.search(args):  # drop nested calls and tuples
                args = _NESTED.sub("", args)
            for name in _KEYWORD.findall(args.split(")", 1)[0]):
                if name not in known:
                    problems.append((lineno, f"TestGenConfig({name}=",
                                     "not a TestGenConfig field"))
    return problems


# ----------------------------------------------------------------------
# Environment variable names
# ----------------------------------------------------------------------

#: Directories whose files must mention every documented variable.
ENV_SOURCES = ("src", "benchmarks", "tools")

#: Files checked for variable names besides :data:`INLINE_DOCS`.
ENV_DOCS = (".github/workflows/ci.yml",)

_ENV_NAME = re.compile(r"\bREPRO_[A-Z0-9_]*[A-Z0-9](?![A-Za-z0-9_*])")


def check_env_names(root: Path, docs: List[Path]) -> List[Tuple[Path, int, str]]:
    """(doc, line, name) for every ``REPRO_`` name in ``docs`` that no
    file under :data:`ENV_SOURCES` contains."""
    corpus = "\n".join(
        path.read_text(encoding="utf-8", errors="ignore")
        for source in ENV_SOURCES
        for path in (root / source).rglob("*")
        if path.is_file() and "__pycache__" not in path.parts
    )
    stale: List[Tuple[Path, int, str]] = []
    for doc in docs:
        lines = doc.read_text(encoding="utf-8").splitlines()
        for lineno, line in enumerate(lines, start=1):
            for name in _ENV_NAME.findall(line):
                if name not in corpus:
                    stale.append((doc, lineno, name))
    return stale


# ----------------------------------------------------------------------
# Benchmark snapshot quotes
# ----------------------------------------------------------------------

_NUMBER = r"(\d+(?:\.\d+)?)"

#: ``(document, pattern, snapshot, fields)``: each group of ``pattern``
#: (a space in it matches any run of whitespace, line breaks included)
#: quotes the snapshot field in the same position.  ``*_seconds`` fields
#: are quoted in milliseconds.
BENCH_QUOTES = [
    ("README.md",
     rf"\| `codegen` \(default\) \| always safe[^|]*\| {_NUMBER}x \|",
     "BENCH_SIMULATOR.json", ("speedup",)),
    ("docs/KERNELS.md",
     rf"\| `codegen` \(default\) \| one pair of straight-line[^|]*\| {_NUMBER}x \|",
     "BENCH_SIMULATOR.json", ("speedup",)),
    ("docs/PERFORMANCE.md",
     rf"`interp` vs `codegen` kernel \| {_NUMBER} ms vs {_NUMBER} ms → "
     rf"\*\*{_NUMBER}x\*\*",
     "BENCH_SIMULATOR.json", ("interp_seconds", "codegen_seconds", "speedup")),
    ("docs/PERFORMANCE.md",
     rf"\| 20 six-frame candidates \| {_NUMBER} ms \| {_NUMBER} ms "
     rf"\(\*\*{_NUMBER}x\*\*\) \|",
     "BENCH_SIMULATOR.json", ("interp_seconds", "codegen_seconds", "speedup")),
    ("DESIGN.md",
     rf"generated straight-line Python \({_NUMBER}x on the one-candidate pass",
     "BENCH_SIMULATOR.json", ("speedup",)),
    ("README.md",
     rf"warm repeat requests measured \*\*{_NUMBER}x\*\* faster than cold",
     "BENCH_SERVICE.json", ("speedup",)),
    ("docs/PERFORMANCE.md",
     rf"service fsim request \(full, 24 frames\), cold vs warm \| {_NUMBER} ms "
     rf"vs {_NUMBER} ms → \*\*{_NUMBER}x\*\*",
     "BENCH_SERVICE.json", ("cold_seconds", "warm_seconds", "speedup")),
    ("docs/PERFORMANCE.md",
     rf"\| cold \(first request[^|]*\| {_NUMBER} ms \|",
     "BENCH_SERVICE.json", ("cold_seconds",)),
    ("docs/PERFORMANCE.md",
     rf"\| warm \(resident simulator[^|]*\| {_NUMBER} ms → \*\*{_NUMBER}x\*\* \|",
     "BENCH_SERVICE.json", ("warm_seconds", "speedup")),
    ("docs/SERVICE.md",
     rf"a warm fault-simulation request is \*\*{_NUMBER}x\*\* faster",
     "BENCH_SERVICE.json", ("speedup",)),
    ("DESIGN.md",
     rf"measured {_NUMBER}x warm-request speedup",
     "BENCH_SERVICE.json", ("speedup",)),
]


def check_bench_quotes(root: Path) -> List[Tuple[str, int, str, str]]:
    """(document, line, quote, reason) for every :data:`BENCH_QUOTES`
    quote that is missing or disagrees with its snapshot.  Entries whose
    document or snapshot is absent are skipped."""
    problems: List[Tuple[str, int, str, str]] = []
    for doc, pattern, snapshot, fields in BENCH_QUOTES:
        doc_path = root / doc
        snapshot_path = root / snapshot
        if not (doc_path.exists() and snapshot_path.exists()):
            continue
        text = doc_path.read_text(encoding="utf-8")
        matches = list(re.finditer(pattern.replace(" ", r"\s+"), text))
        if len(matches) != 1:
            problems.append((doc, 0, pattern,
                             f"quote of {snapshot} found {len(matches)} times, "
                             f"expected once"))
            continue
        match = matches[0]
        lineno = text.count("\n", 0, match.start()) + 1
        data = json.loads(snapshot_path.read_text(encoding="utf-8"))
        for field, quoted in zip(fields, match.groups()):
            value = data[field] * (1000 if field.endswith("_seconds") else 1)
            decimals = len(quoted.partition(".")[2])
            exact = f"{value:.{decimals}f}"
            if exact != quoted:
                problems.append((doc, lineno, quoted,
                                 f"{snapshot} {field} rounds to {exact}"))
    return problems


def main(argv: List[str]) -> int:
    root = Path(argv[1]).resolve() if len(argv) > 1 else Path(__file__).resolve().parent.parent
    failures = 0
    checked = 0
    commands = _cli_parsers(root)
    config_fields = _config_fields(root)
    inline_docs = {path for pattern in INLINE_DOCS for path in root.glob(pattern)}
    for pattern in DOC_GLOBS:
        for path in sorted(root.glob(pattern)):
            checked += 1
            for lineno, target, reason in check_file(path, root):
                failures += 1
                print(f"{path.relative_to(root)}:{lineno}: dead link "
                      f"({reason}): {target}")
            for lineno, target, reason in check_cli_blocks(
                path, commands, inline_code=path in inline_docs
            ):
                failures += 1
                print(f"{path.relative_to(root)}:{lineno}: stale CLI "
                      f"example ({reason}): {target}")
            if path in inline_docs:
                for lineno, quote, reason in check_config_spans(
                    path, config_fields
                ):
                    failures += 1
                    print(f"{path.relative_to(root)}:{lineno}: stale config "
                          f"example ({reason}): {quote}")
    env_docs = sorted(inline_docs) + [
        root / name for name in ENV_DOCS if (root / name).exists()
    ]
    for doc, lineno, name in check_env_names(root, env_docs):
        failures += 1
        print(f"{doc.relative_to(root)}:{lineno}: stale environment "
              f"variable (no file under {', '.join(ENV_SOURCES)} "
              f"names it): {name}")
    for doc, lineno, quote, reason in check_bench_quotes(root):
        failures += 1
        print(f"{doc}:{lineno}: stale benchmark quote ({reason}): {quote}")
    print(f"checked {checked} markdown files: "
          f"{'OK' if not failures else f'{failures} problem(s)'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
