#!/usr/bin/env python3
"""burst-lint: repo-specific static analysis for the BurstEngine tree.

Two tiers (DESIGN.md sections 12 and 17 have the full invariant tables):

  1. Per-file rules. The engine walks the C++ sources, strips comments and
     string literals so rules only see code, and checks line-level
     invariants one translation unit at a time.
  2. Whole-program analyses. Every scanned file is tokenized once into a
     ProgramModel (resolved include graph, per-file identifier and
     public-symbol sets, per-function lock acquisitions and call sites, the
     burst::Error class hierarchy, every catch site); registered analyses
     run over the model: ``layer-dag`` (architecture layering against
     scripts/lint/layers.json, include cycles, IWYU-lite unused includes),
     ``lock-order`` (global lock-acquisition-order cycles = potential
     deadlock, cv.wait without predicate), ``error-flow`` (catch
     clauses that silently swallow a burst::Error), ``orphan-decl`` (free
     functions nothing names) and ``unset-option`` (option-struct members
     nothing outside their own module writes).

Violations are reported as human-readable diagnostics and a versioned JSON
report in the same ``burst.run_report`` shape the benches emit, so
scripts/verify.sh gates on ``self_check`` uniformly.

Usage:
    burst_lint.py [--root DIR] [--json REPORT.json] [--list-rules]
                  [--baseline FILE] [--write-baseline] [--no-analyses]
                  [PATH ...]

With no PATH arguments the default scan set is src/, tests/, bench/ and
examples/ under --root (default: the repo root containing this script).
Exit code 0 iff no violations.

Whole-program findings can additionally be grandfathered in a committed
baseline file (default: scripts/lint/baseline.json under --root, when it
exists). Baseline entries match by stable (rule, path, key) — no line
numbers — and stale entries are themselves violations.

Suppressions (all require a rule name; a reason is strongly encouraged):

    code();  // burst-lint: allow(rule-name) reason why this is fine
    // burst-lint: allow(rule-name) reason        <- covers the NEXT line
    // burst-lint: allow-begin(rule-name) reason
    ...block...
    // burst-lint: allow-end(rule-name)
    // burst-lint: allow-file(rule-name) reason   <- whole file

File tags:

    // burst-lint: hotpath   <- marks a kernel hot-path file; enables the
                                no-hotpath-alloc rule for that file.

Unknown rule names inside any burst-lint comment are themselves violations
(rule ``lint-directive``), so suppressions cannot rot silently.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass, field


# --------------------------------------------------------------------------
# Source model
# --------------------------------------------------------------------------

_DIRECTIVE_RE = re.compile(
    r"//\s*burst-lint:\s*"
    r"(?P<verb>allow-begin|allow-end|allow-file|allow|hotpath)"
    r"(?:\s*\(\s*(?P<rules>[A-Za-z0-9_,\s-]+)\s*\))?"
    r"(?P<reason>[^\n]*)"
)


@dataclass
class Directive:
    verb: str  # allow | allow-begin | allow-end | allow-file | hotpath
    rules: list[str]
    line: int  # 1-based
    reason: str


@dataclass
class SourceFile:
    """A parsed source file: raw lines, code-only lines, directives."""

    path: str  # path as reported (relative to root when possible)
    raw: str
    abs_path: str = ""
    lines: list[str] = field(default_factory=list)  # raw, 0-based
    code_lines: list[str] = field(default_factory=list)  # comments/strings blanked
    directives: list[Directive] = field(default_factory=list)
    hotpath: bool = False
    # rule -> set of 1-based line numbers covered by an allow
    allowed: dict = field(default_factory=dict)
    file_allowed: set = field(default_factory=set)  # rules allowed file-wide

    def is_allowed(self, rule: str, line: int) -> bool:
        if rule in self.file_allowed:
            return True
        return line in self.allowed.get(rule, ())


def _is_digit_separator(text: str, i: int) -> bool:
    """True when the ' at text[i] is a C++14 digit separator.

    A ' directly following an identifier/number character is a separator
    unless that token is one of the char-literal prefixes (u, U, L, u8) —
    the only spellings where a letter legally abuts a char literal.
    """
    j = i - 1
    if j < 0 or not (text[j].isalnum() or text[j] == "_"):
        return False
    start = j
    while start > 0 and (text[start - 1].isalnum() or text[start - 1] in "_."):
        start -= 1
    return text[start:i] not in ("u", "U", "L", "u8")


def strip_comments_and_strings(text: str) -> str:
    """Blanks comments and string/char literals, preserving line structure.

    Every non-newline character inside a comment or literal becomes a space
    so byte offsets and line numbers in the result match the original.
    """
    out = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                out.append(" ")
                i += 1
        elif c == "/" and nxt == "*":
            out.append("  ")
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n and text[i + 1] == "/"):
                out.append("\n" if text[i] == "\n" else " ")
                i += 1
            if i < n:
                out.append("  ")
                i += 2
        elif c == "'" and _is_digit_separator(text, i):
            # C++14 digit separator (0x50414E'53u, 1'000'000): part of a
            # numeric literal, not a char-literal open.
            out.append(c)
            i += 1
        elif c == '"' or c == "'":
            quote = c
            out.append(" ")
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\" and i + 1 < n:
                    out.append("  ")
                    i += 2
                    continue
                out.append("\n" if text[i] == "\n" else " ")
                i += 1
            if i < n:
                out.append(" ")
                i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def parse_file(path: str, display: str) -> SourceFile:
    with open(path, encoding="utf-8", errors="replace") as f:
        raw = f.read()
    sf = SourceFile(path=display, raw=raw)
    sf.lines = raw.split("\n")
    sf.code_lines = strip_comments_and_strings(raw).split("\n")
    for m in _DIRECTIVE_RE.finditer(raw):
        line = raw.count("\n", 0, m.start()) + 1
        rules = []
        if m.group("rules"):
            rules = [r.strip() for r in m.group("rules").split(",") if r.strip()]
        sf.directives.append(
            Directive(
                verb=m.group("verb"),
                rules=rules,
                line=line,
                reason=(m.group("reason") or "").strip(),
            )
        )
    return sf


@dataclass
class Finding:
    rule: str
    path: str
    line: int  # 1-based
    message: str
    # Stable identity for whole-program findings, independent of line
    # numbers, so the committed baseline survives unrelated edits. Empty for
    # per-file rule findings (those are fixed, never baselined).
    key: str = ""

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


# --------------------------------------------------------------------------
# Rule registry
# --------------------------------------------------------------------------

RULES = {}


class Rule:
    def __init__(self, name, invariant, check, applies):
        self.name = name
        self.invariant = invariant
        self.check = check
        self.applies = applies


def rule(name, invariant, applies=lambda path: True):
    """Registers ``fn(sf) -> iterable[(line, message)]`` as a lint rule."""

    def deco(fn):
        RULES[name] = Rule(name, invariant, fn, applies)
        return fn

    return deco


def _in_dir(path, *dirs):
    parts = path.replace("\\", "/").split("/")
    return any(d in parts for d in dirs)


def _code_matches(sf, pattern):
    rx = re.compile(pattern)
    for idx, line in enumerate(sf.code_lines):
        for m in rx.finditer(line):
            yield idx + 1, m


# --------------------------------------------------------------------------
# Rules
# --------------------------------------------------------------------------


@rule(
    "no-wallclock",
    "virtual-clock determinism: sim/, serve/, resilience/ schedule on "
    "sim::VirtualClock only; wall-clock reads live in src/obs/",
    applies=lambda p: (_in_dir(p, "src", "tests") and not _in_dir(p, "obs")),
)
def no_wallclock(sf):
    pat = (
        r"std\s*::\s*chrono\s*::\s*(system_clock|steady_clock|"
        r"high_resolution_clock)"
        r"|\bgettimeofday\s*\("
        r"|\bclock_gettime\s*\("
        r"|(?<![\w:])time\s*\(\s*(nullptr|NULL|0)?\s*\)"
        r"|(?<![\w:])std\s*::\s*time\s*\("
    )
    for line, m in _code_matches(sf, pat):
        yield line, (
            f"wall-clock read `{m.group(0).strip()}` outside src/obs/; "
            "use sim::VirtualClock (ctx.clock()) so replays stay bitwise "
            "deterministic"
        )


@rule(
    "no-serving-wallclock",
    "serving determinism (DESIGN.md section 13): src/api/ and src/serve/ run "
    "entirely on sim::VirtualClock; no <chrono>, std::this_thread, or sleep "
    "calls of any kind, so replays and SLO decisions stay bitwise identical",
    applies=lambda p: _in_dir(p, "src") and _in_dir(p, "api", "serve"),
)
def no_serving_wallclock(sf):
    # Stricter than no-wallclock: the serving stack may not even *name*
    # std::chrono types (durations included) — every timestamp is a double of
    # virtual seconds — and may never sleep, because blocking on real time
    # would desynchronize the simulated event stream from the virtual clock.
    pat = (
        r"#\s*include\s*<\s*chrono\s*>"
        r"|std\s*::\s*chrono\b"
        r"|std\s*::\s*this_thread\b"
        r"|(?<![\w:.])(?:sleep_for|sleep_until|usleep|nanosleep|sleep)\s*\("
    )
    seen = set()
    for line, m in _code_matches(sf, pat):
        if line in seen:
            continue  # one finding per line even when e.g. this_thread::sleep_for
        seen.add(line)
        yield line, (
            f"wall-clock construct `{m.group(0).strip()}` in serving code; "
            "src/api/ and src/serve/ schedule on sim::VirtualClock virtual "
            "seconds only (no chrono types, no sleeping)"
        )


@rule(
    "typed-errors-only",
    "typed errors everywhere (DESIGN.md sections 14 and 17): all of src/ "
    "throws burst::Error subclasses, never raw std::runtime_error or "
    "std::logic_error — supervisors, the API layer, and RunReport all "
    "dispatch on burst::ErrorCode, and an untyped throw degrades to "
    "code \"unknown\" (a 500 at the serving boundary)",
    applies=lambda p: _in_dir(p, "src"),
)
def typed_errors_only(sf):
    pat = r"\bthrow\s+std\s*::\s*(runtime_error|logic_error)\b"
    for line, m in _code_matches(sf, pat):
        yield line, (
            f"raw `throw std::{m.group(1)}`; throw a burst::Error subclass "
            "(obs/error.hpp, serve/errors.hpp, comm/errors.hpp) so the "
            "failure carries a typed ErrorCode supervisors and reports "
            "can dispatch on"
        )


@rule(
    "no-raw-rand",
    "bitwise replay: all randomness flows through tensor::Rng with an "
    "explicit recorded seed",
)
def no_raw_rand(sf):
    pat = (
        r"(?<![\w:])s?rand\s*\("
        r"|std\s*::\s*random_device"
        r"|(?<![\w:])random_device\b"
    )
    for line, m in _code_matches(sf, pat):
        yield line, (
            f"raw randomness `{m.group(0).strip()}`; use tensor::Rng with an "
            "explicit seed so training runs replay bitwise identically"
        )


_ALLOC_PAT = (
    r"(?P<new>(?<![\w:])new\b(?!\s*\()\s*[\w:<]|(?<![\w:])new\s*\()"
    r"|(?P<cfn>(?<![\w:])(?:malloc|calloc|realloc)\s*\()"
    r"|(?P<tensor>(?<![\w:])Tensor\s*(?:\(|\{(?!\s*\})))"
    r"|(?P<vec>std\s*::\s*vector\s*<)"
    r"|(?P<grow>\.\s*(?:push_back|emplace_back|resize|reserve)\s*\()"
)


def _is_vector_ref(line, open_pos):
    """True when the ``std::vector<`` starting before ``open_pos`` names a
    reference or pointer type (``const std::vector<T>&`` parameters), which
    allocates nothing. ``open_pos`` indexes just past the ``<``."""
    depth = 1
    i = open_pos
    while i < len(line) and depth:
        if line[i] == "<":
            depth += 1
        elif line[i] == ">":
            depth -= 1
        i += 1
    if depth:  # template args continue on the next line; assume allocation
        return False
    while i < len(line) and line[i].isspace():
        i += 1
    return i < len(line) and line[i] in "&*"


@rule(
    "no-hotpath-alloc",
    "workspace arena discipline (DESIGN.md section 11): kernel hot paths "
    "borrow scratch from tensor::Workspace; zero steady-state heap "
    "allocations",
    applies=lambda p: True,  # gated per-file by the hotpath tag
)
def no_hotpath_alloc(sf):
    if not sf.hotpath:
        return
    for line, m in _code_matches(sf, _ALLOC_PAT):
        if m.group("vec") and _is_vector_ref(sf.code_lines[line - 1], m.end()):
            continue  # `std::vector<T>&` / `*`: a type mention, no allocation
        what = m.group(0).strip()
        yield line, (
            f"allocation `{what}` in a hot-path file; borrow from "
            "Workspace::tls() (or move the allocation to setup and suppress "
            "with a reason)"
        )


_RECV_STMT = re.compile(
    r"^\s*"
    r"(?:[A-Za-z_]\w*(?:\[[^\]]*\])?\s*(?:\.|->|::)\s*)*"
    r"(?P<fn>recv|recv_bundle|recv_frame)\s*\("
)


@rule(
    "no-unchecked-recv",
    "hardened-comm contract (DESIGN.md section 9): every recv-family result "
    "is consumed so checksum/sequence verification cannot be skipped",
    applies=lambda p: p.endswith((".cpp", ".hpp")),
)
def no_unchecked_recv(sf):
    # A recv-family call whose result is discarded is a statement that
    # *starts* with the call expression (possibly behind an obj./obj->/ns::
    # chain) and ends it: nothing to the left consumes the returned
    # vector/bundle, so the caller never observes what arrived. Declarations
    # and uses (assignment, return, argument position, member access on the
    # result) all place other tokens before the call or after the closing
    # paren.
    for idx, line in enumerate(sf.code_lines):
        m = _RECV_STMT.match(line)
        if not m:
            continue
        # Continuation of a binding/return/argument broken across lines
        # (`Bundle home =` on the previous line) is a consuming use.
        prev = ""
        for back in range(idx - 1, -1, -1):
            prev = sf.code_lines[back].strip()
            if prev:
                break
        if prev and (prev[-1] in "=(,<>?:+-*/%!&|" or
                     prev.endswith("return")):
            continue
        # Find the end of the call on this line (best-effort for one-liners;
        # a multi-line discard still starts the statement, handled below).
        rest = line[m.end():]
        depth = 1
        pos = 0
        for pos, ch in enumerate(rest):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0:
                    break
        if depth != 0:
            tail = ""  # call continues on later lines; statement-start suffices
        else:
            tail = rest[pos + 1:].strip()
        if tail not in ("", ";"):
            continue  # consumed or a definition, e.g. `recv(...)[0];`, `... {`
        fn = m.group("fn")
        yield idx + 1, (
            f"result of `{fn}(...)` is discarded; bind it (or drain via a "
            "checked wrapper) so the hardened-comm checks are observed"
        )


@rule(
    "include-hygiene",
    "own header first; no transitive-only includes of workspace.hpp / "
    "metrics.hpp",
    applies=lambda p: _in_dir(p, "src") and p.endswith((".cpp", ".hpp")),
)
def include_hygiene(sf):
    path = sf.path.replace("\\", "/")
    includes = []  # (line, target)
    inc_rx = re.compile(r'^\s*#\s*include\s+["<]([^">]+)[">]')
    for idx, line in enumerate(sf.lines):
        m = inc_rx.match(line)
        if m:
            includes.append((idx + 1, m.group(1)))

    # (a) a .cpp with a sibling header includes it first.
    if path.endswith(".cpp"):
        stem = os.path.splitext(os.path.basename(path))[0]
        parent = os.path.basename(os.path.dirname(path))
        own = f"{parent}/{stem}.hpp"
        sibling = os.path.join(os.path.dirname(sf.abs_path), stem + ".hpp")
        if os.path.exists(sibling):
            if not includes:
                yield 1, f"missing include of own header \"{own}\""
            elif includes[0][1] != own:
                yield includes[0][0], (
                    f"first include must be the file's own header \"{own}\" "
                    f"(got \"{includes[0][1]}\") so the header is proven "
                    "self-contained"
                )

    # (b) direct-include discipline for arena / metrics types. Applies to
    # .cpp files only: a header that passes an opaque pointer may forward-
    # declare instead (kernels/flash_attention.hpp does exactly that).
    if not path.endswith(".cpp"):
        return
    included = {t for _, t in includes}
    code = "\n".join(sf.code_lines)
    wants = [
        (
            "tensor/workspace.hpp",
            r"\bWorkspace\b",
            "uses tensor::Workspace",
        ),
        (
            "obs/metrics.hpp",
            r"\bobs\s*::\s*(Registry|Counter|Gauge|Histogram|global_registry)\b"
            r"|\bScopedTimer\b",
            "uses obs metrics types",
        ),
    ]
    for header, pat, why in wants:
        if path.endswith(header):
            continue
        m = re.search(pat, code)
        if m and header not in included:
            line = code.count("\n", 0, m.start()) + 1
            yield line, (
                f"{why} but does not include \"{header}\" directly "
                "(transitive include only)"
            )


def _is_sim_backend_file(path):
    p = path.replace("\\", "/")
    return p.endswith(("comm/sim_transport.hpp", "comm/sim_transport.cpp"))


@rule(
    "no-direct-cluster",
    "transport abstraction (DESIGN.md section 15): outside src/sim/ and the "
    "simulator transport backend, src/ code reaches the device only through "
    "comm::Transport; direct sim::Cluster / sim::DeviceContext use couples "
    "protocol or model code to one backend",
    applies=lambda p: (
        _in_dir(p, "src") and not _in_dir(p, "sim")
        and not _is_sim_backend_file(p)
    ),
)
def no_direct_cluster(sf):
    # Includes are detected from raw lines (the string stripper blanks the
    # path), code references from the stripped lines.
    inc_rx = re.compile(r'^\s*#\s*include\s+"sim/cluster\.hpp"')
    for idx, line in enumerate(sf.lines):
        if inc_rx.match(line):
            yield idx + 1, (
                'direct include of "sim/cluster.hpp"; construct a '
                "comm::SimTransport at the cluster-hosting boundary and pass "
                "comm::Transport& down (or suppress with a reason at a "
                "legitimate hosting site)"
            )
    pat = r"\bsim\s*::\s*(Cluster|DeviceContext)\b|(?<![\w:])DeviceContext\b"
    seen = set()
    for line, m in _code_matches(sf, pat):
        if line in seen:
            continue  # one finding per line, like no-serving-wallclock
        seen.add(line)
        yield line, (
            f"direct simulator type `{m.group(0).strip()}`; depend on "
            "comm::Transport instead so the code also runs on the socket "
            "backend"
        )


_FLOAT_LIT = re.compile(r"^[-+]?(\d+\.\d*|\.\d+)(e[-+]?\d+)?f?$|^[-+]?\d+\.?\d*f$")


def _split_top_level_args(s):
    """Splits a macro argument list at top-level commas. Returns None when
    the parenthesization is unbalanced (multi-line call)."""
    args = []
    depth = 0
    cur = []
    for ch in s:
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            if depth == 0:
                args.append("".join(cur).strip())
                return args
            depth -= 1
        elif ch == "," and depth == 0:
            args.append("".join(cur).strip())
            cur = []
            continue
        cur.append(ch)
    return None


@rule(
    "no-naked-float-eq",
    "numerical honesty in tests: exact float comparison must be a deliberate "
    "bitwise-determinism assertion (suppressed with a reason) or use "
    "EXPECT_NEAR / EXPECT_FLOAT_EQ",
    applies=lambda p: _in_dir(p, "tests"),
)
def no_naked_float_eq(sf):
    rx = re.compile(r"\b(EXPECT_EQ|ASSERT_EQ|EXPECT_NE|ASSERT_NE)\s*\(")
    for idx, line in enumerate(sf.code_lines):
        for m in rx.finditer(line):
            args = _split_top_level_args(line[m.end() :])
            if not args or len(args) < 2:
                continue
            if any(_FLOAT_LIT.match(a) for a in args[:2]):
                yield idx + 1, (
                    f"{m.group(1)} against a float literal; use EXPECT_NEAR/"
                    "EXPECT_FLOAT_EQ, or suppress with a reason when asserting "
                    "bitwise determinism"
                )


@rule(
    "quantized-hotpath",
    "quantized-storage encapsulation (DESIGN.md section 16): only src/tensor/ "
    "may touch the quantized block layout — the per-block codecs "
    "(quantize_block_q*/dequantize_q*), the panel-layout helpers "
    "(b_chunk_bytes/b_panel_stride_bytes/pack_b_dt), and PackedB's raw "
    "cache_block() stream. Everything else consumes quantized weights "
    "through PackedB / gemm_packed, so the block format can "
    "change without a treewide audit",
    applies=lambda p: _in_dir(p, "src") and not _in_dir(p, "tensor"),
)
def quantized_hotpath(sf):
    pat = (
        r"(?<![\w:])(?:quantize_block_q8_0|quantize_block_q4_0"
        r"|dequantize_q8_0|dequantize_q4_0"
        r"|b_chunk_bytes|b_panel_stride_bytes|b_panel_bytes|pack_b_dt)\s*\("
        r"|[.\->]\s*cache_block\s*\("
    )
    for line, m in _code_matches(sf, pat):
        yield line, (
            f"quantized block-layout access `{m.group(0).strip()}` outside "
            "src/tensor/; go through PackedB / gemm_packed "
            "(tensor/gemm.hpp) instead of reinterpreting the packed stream"
        )


_LAYER_PARAM_RE = re.compile(r"(?:\.|->)\s*(wq|wk|wv|wo|w1|w2)\b")
_LAYER_PARAMS = frozenset(["wq", "wk", "wv", "wo", "w1", "w2"])
_PARAM_LIST_OWNERS = ("src/model/transformer.hpp", "src/model/transformer.cpp")


@rule(
    "one-param-list",
    "one parameter list (DESIGN.md section 2): the model's parameter order "
    "(per layer wq, wk, wv, wo, w1, w2, then w_embed, w_head) fixes the "
    "Adam state layout, the training-snapshot bytes and the gradient "
    "all-reduce sequence, so model/transformer.hpp states it once, in "
    "for_each_param / for_each_layer_param; a function elsewhere in src/, "
    "bench/ or examples/ that touches all six layer parameters restates it",
    applies=lambda p: (
        p.replace("\\", "/").split("/")[0] in ("src", "bench", "examples")
        and not p.replace("\\", "/").endswith(_PARAM_LIST_OWNERS)
    ),
)
def one_param_list(sf):
    text = "\n".join(sf.code_lines)
    for name, start, end, line in extract_functions(sf):
        seen = {m.group(1) for m in _LAYER_PARAM_RE.finditer(text, start, end)}
        if seen >= _LAYER_PARAMS:
            yield line, (
                f"`{name}` spells out the parameter list (.wq .wk .wv .wo "
                ".w1 .w2); walk it with model::for_each_param or "
                "for_each_layer_param (model/transformer.hpp)"
            )


_LAYER_BACKWARD_OWNERS = ("src/model/dist_model.cpp", "src/model/block.hpp")


@rule(
    "one-layer-backward",
    "one layer backward (DESIGN.md section 2): training runs one layer "
    "forward/backward pair, the distributed step's in model/dist_model.cpp "
    "(the one-device entry points run it on one rank), so the block's "
    "backward halves block_backward_ffn / block_backward_qkv "
    "(model/block.hpp) are called from nowhere else in src/; a second "
    "caller is a second backward layer",
    applies=lambda p: (
        p.replace("\\", "/").split("/")[0] == "src"
        and not p.replace("\\", "/").endswith(_LAYER_BACKWARD_OWNERS)
    ),
)
def one_layer_backward(sf):
    # Over the joined code lines, so a call split before its '(' still counts.
    text = "\n".join(sf.code_lines)
    for m in re.finditer(r"\bblock_backward_(ffn|qkv)\s*\(", text):
        yield text.count("\n", 0, m.start()) + 1, (
            f"call to `block_backward_{m.group(1)}` outside "
            "model/dist_model.cpp; run the step through dist_train_step (or "
            "serial_train_step on one device) instead of a second backward "
            "layer"
        )


# ==========================================================================
# Tier 2: whole-program analyses over a ProgramModel
# ==========================================================================
#
# The per-file rules above see one translation unit at a time. The
# ProgramModel pass tokenizes every scanned file once and builds the global
# structures the cross-file analyses need: the resolved include graph, the
# identifier sets per file, the public-symbol ("provides") sets per header,
# the function table with per-function lock acquisitions and call sites, the
# burst::Error class hierarchy, and every catch site. Registered analyses
# (ANALYSES) then run over the model and emit Findings through the same
# suppression machinery as the per-file rules, plus an optional committed
# baseline (scripts/lint/baseline.json) for grandfathered findings.

_CPP_KEYWORDS = frozenset(
    """alignas alignof and and_eq asm auto bitand bitor bool break case catch
    char char8_t char16_t char32_t class co_await co_return co_yield compl
    concept const const_cast consteval constexpr constinit continue decltype
    default delete do double dynamic_cast else enum explicit export extern
    false final float for friend goto if inline int long mutable namespace
    new noexcept not not_eq nullptr operator or or_eq override private
    protected public register reinterpret_cast requires return short signed
    sizeof static static_assert static_cast struct switch template this
    thread_local throw true try typedef typeid typename union unsigned using
    virtual void volatile wchar_t while""".split()
)

_IDENT_RE = re.compile(r"[A-Za-z_]\w*")
_CALLISH_RE = re.compile(r"\b([A-Za-z_]\w*)\s*\(")


def _line_of(text, pos):
    return text.count("\n", 0, pos) + 1


def _match_balanced(text, open_pos, pairs="()"):
    """Returns the index just past the delimiter matching text[open_pos]
    (which must be pairs[0]), or -1 when unbalanced."""
    o, c = pairs[0], pairs[1]
    depth = 0
    for i in range(open_pos, len(text)):
        if text[i] == o:
            depth += 1
        elif text[i] == c:
            depth -= 1
            if depth == 0:
                return i + 1
    return -1


@dataclass
class IncludeEdge:
    line: int
    target: str  # as written inside the quotes/brackets
    resolved: str  # display path of the included file, or "" when external


@dataclass
class LockAcq:
    lock: str  # normalized lock id
    line: int
    depth: int  # brace depth inside the body at the acquisition
    var: str  # guard variable name ("" for direct .lock())


@dataclass
class CallSite:
    callee: str  # last-component name
    line: int
    held: tuple  # lock ids held at the call


@dataclass
class Function:
    name: str  # as written, possibly qualified (Cluster::take)
    short: str  # last component
    path: str
    line: int
    acquisitions: list = field(default_factory=list)  # [LockAcq]
    lock_edges: list = field(default_factory=list)  # [(l1, l2, line)]
    calls: list = field(default_factory=list)  # [CallSite]
    locks: set = field(default_factory=set)  # ids acquired directly


@dataclass
class CatchSite:
    path: str
    line: int
    type_name: str  # "..." or last component of the caught type
    var: str  # bound variable name, "" when anonymous
    body: str  # stripped body text (between the braces)


# -- function extraction ----------------------------------------------------

_FUNC_HEAD_RE = re.compile(
    r"(~?[A-Za-z_]\w*(?:\s*::\s*~?[A-Za-z_]\w*)*)\s*\("
)
_QUALIFIERS = frozenset(["const", "noexcept", "override", "final", "mutable"])


def _skip_initializer_list(text, i):
    """Consumes a constructor member-initializer list starting at the ':' at
    text[i]. Returns the index of the body '{', or -1 when this is not an
    initializer list (e.g. a ternary or a label)."""
    i += 1
    n = len(text)
    while True:
        while i < n and text[i].isspace():
            i += 1
        m = _IDENT_RE.match(text, i)
        if not m:
            return -1
        i = m.end()
        while i < n and text[i].isspace():
            i += 1
        # Optional template args on a base-class initializer.
        if i < n and text[i] == "<":
            close = text.find(">", i)
            if close < 0:
                return -1
            i = close + 1
            while i < n and text[i].isspace():
                i += 1
        if i >= n or text[i] not in "({":
            return -1
        end = _match_balanced(text, i, "()" if text[i] == "(" else "{}")
        if end < 0:
            return -1
        i = end
        while i < n and text[i].isspace():
            i += 1
        if i < n and text[i] == ",":
            i += 1
            continue
        if i < n and text[i] == "{":
            return i
        return -1


def _find_body(text, params_end):
    """Given the index just past a parameter list's ')', returns the index of
    the function body's '{' or -1 when the construct is not a definition."""
    i = params_end
    n = len(text)
    while i < n:
        while i < n and text[i].isspace():
            i += 1
        if i >= n:
            return -1
        c = text[i]
        if c == "{":
            return i
        if c == ":":
            return _skip_initializer_list(text, i)
        if c == "-" and i + 1 < n and text[i + 1] == ">":
            # Trailing return type: consume tokens until '{' or ';'.
            j = i + 2
            while j < n and text[j] not in "{;":
                j += 1
            return j if j < n and text[j] == "{" else -1
        m = _IDENT_RE.match(text, i)
        if m and m.group(0) in _QUALIFIERS:
            i = m.end()
            # noexcept(...) / final(...) arguments
            while i < n and text[i].isspace():
                i += 1
            if i < n and text[i] == "(":
                end = _match_balanced(text, i)
                if end < 0:
                    return -1
                i = end
            continue
        return -1
    return -1


def extract_functions(sf):
    """Yields (name, body_start, body_end, line) for every function
    definition in sf's stripped code. body_start/end delimit the text inside
    the outer braces."""
    text = "\n".join(sf.code_lines)
    pos = 0
    n = len(text)
    while pos < n:
        m = _FUNC_HEAD_RE.search(text, pos)
        if not m:
            return
        name = re.sub(r"\s+", "", m.group(1))
        first = name.split("::")[0].lstrip("~")
        if first in _CPP_KEYWORDS:
            pos = m.end()
            continue
        params_end = _match_balanced(text, m.end() - 1)
        if params_end < 0:
            pos = m.end()
            continue
        body_open = _find_body(text, params_end)
        if body_open < 0:
            pos = m.end()
            continue
        body_close = _match_balanced(text, body_open, "{}")
        if body_close < 0:
            pos = m.end()
            continue
        yield name, body_open + 1, body_close - 1, _line_of(text, m.start())
        pos = body_close


# -- lock extraction --------------------------------------------------------

_ACQ_PREFIX_RE = re.compile(
    r"std\s*::\s*(?P<kind>lock_guard|unique_lock|scoped_lock)\b"
    r"(?:\s*<[^<>;]*>)?\s+(?P<var>[A-Za-z_]\w*)\s*(?P<open>[({])"
)
_MUTEX_DECL_RE = re.compile(
    r"std\s*::\s*(?:recursive_|timed_|shared_)?mutex\s*&?\s+"
    r"([A-Za-z_]\w*)\s*[;({=]"
)
_CV_DECL_RE = re.compile(
    r"std\s*::\s*condition_variable(?:_any)?\s+([A-Za-z_]\w*)\s*[;{]"
)
# Only class/struct scopes own member mutexes; a namespace-level or local
# mutex stays file-qualified so same-named locals in two files never merge.
_SCOPE_OPEN_RE = re.compile(
    r"\b(?:class|struct)\s+([A-Za-z_]\w*)[^;{()]*\{"
)


def _lock_id_of(expr, owners, path):
    """Normalizes a mutex expression to a stable lock id. The last
    identifier names the mutex; when exactly one class in the model declares
    a member of that name the id is Class::name, otherwise name@file."""
    idents = [t for t in _IDENT_RE.findall(expr)
              if t not in ("std", "adopt_lock", "defer_lock", "try_to_lock")]
    if not idents:
        return ""
    name = idents[-1]
    owner = owners.get(name)
    if owner and len(owner) == 1:
        return f"{next(iter(owner))}::{name}"
    return f"{name}@{path}"


def _scan_mutex_owners(sources):
    """Maps mutex/cv member names to the set of classes declaring them, by
    walking each file's brace structure with a named-scope stack."""
    owners = {}
    cv_names = set()
    for sf in sources:
        text = "\n".join(sf.code_lines)
        scopes = []  # (name_or_None, depth_at_open)
        depth = 0
        events = []
        for m in _SCOPE_OPEN_RE.finditer(text):
            events.append((m.end() - 1, "scope", m.group(1)))
        for m in _MUTEX_DECL_RE.finditer(text):
            events.append((m.start(), "mutex", m.group(1)))
        for m in _CV_DECL_RE.finditer(text):
            events.append((m.start(), "cv", m.group(1)))
            cv_names.add(m.group(1))
        for i, ch in enumerate(text):
            if ch in "{}":
                events.append((i, ch, None))
        events.sort(key=lambda e: e[0])
        pending_scope = None
        for _, kind, val in events:
            if kind == "scope":
                pending_scope = val
            elif kind == "{":
                scopes.append((pending_scope, depth))
                pending_scope = None
                depth += 1
            elif kind == "}":
                depth -= 1
                while scopes and scopes[-1][1] >= depth:
                    scopes.pop()
            elif kind in ("mutex", "cv"):
                cls = next(
                    (s for s, _ in reversed(scopes) if s is not None), None)
                if cls is not None:
                    owners.setdefault(val, set()).add(cls)
    return owners, cv_names


def _scan_function_locks(fn, body, body_line0, owners, path):
    """Fills fn.acquisitions / lock_edges / calls / locks from one body.

    Brace depth is tracked so a guard dies when its enclosing block closes;
    `held` is therefore a faithful lockset at every acquisition and call
    site, and `lock_edges` records only genuine nesting (lock A held while
    acquiring lock B), not sequential scopes.
    """
    events = []  # (pos, kind, payload)
    for i, ch in enumerate(body):
        if ch in "{}":
            events.append((i, ch, None))
    consumed_until = 0
    for m in _ACQ_PREFIX_RE.finditer(body):
        end = _match_balanced(
            body, m.end() - 1, "()" if m.group("open") == "(" else "{}")
        if end < 0:
            continue
        args = _split_top_level_args(body[m.end():end])
        if args is None:
            args = [body[m.end():end - 1]]
        locks = []
        for a in args:
            lid = _lock_id_of(a, owners, path)
            if lid:
                locks.append(lid)
        if locks:
            events.append((m.start(), "acq", (locks, m.group("var"))))
    for m in re.finditer(r"\b([A-Za-z_]\w*)\s*\.\s*(lock|unlock)\s*\(", body):
        events.append((m.start(), m.group(2), m.group(1)))
    for m in _CALLISH_RE.finditer(body):
        name = m.group(1)
        if name in _CPP_KEYWORDS or name in ("lock", "unlock"):
            continue
        events.append((m.start(), "call", name))
    events.sort(key=lambda e: (e[0], e[1] != "}"))

    depth = 0
    held = []  # [LockAcq]
    var_lock = {}  # guard var -> lock id (for .lock()/.unlock())
    for pos, kind, payload in events:
        if kind == "{":
            depth += 1
        elif kind == "}":
            depth -= 1
            held = [a for a in held if a.depth <= depth]
        elif kind == "acq":
            locks, var = payload
            line = body_line0 + _line_of(body, pos) - 1
            for lid in locks:
                for prev in held:
                    if prev.lock != lid:
                        fn.lock_edges.append((prev.lock, lid, line))
                acq = LockAcq(lock=lid, line=line, depth=depth, var=var)
                held.append(acq)
                fn.acquisitions.append(acq)
                fn.locks.add(lid)
                var_lock[var] = lid
        elif kind == "unlock":
            lid = var_lock.get(payload)
            if lid is not None:
                held = [a for a in held if not (a.lock == lid
                                                and a.var == payload)]
        elif kind == "lock":
            lid = var_lock.get(payload)
            if lid is not None and all(a.lock != lid for a in held):
                line = body_line0 + _line_of(body, pos) - 1
                for prev in held:
                    fn.lock_edges.append((prev.lock, lid, line))
                acq = LockAcq(lock=lid, line=line, depth=depth, var=payload)
                held.append(acq)
                fn.acquisitions.append(acq)
                fn.locks.add(lid)
        elif kind == "call":
            if held:
                line = body_line0 + _line_of(body, pos) - 1
                fn.calls.append(CallSite(
                    callee=payload, line=line,
                    held=tuple(a.lock for a in held)))


# -- catch-site extraction --------------------------------------------------

_CATCH_RE = re.compile(r"\bcatch\s*\(")


def _extract_catches(sf):
    text = "\n".join(sf.code_lines)
    out = []
    for m in _CATCH_RE.finditer(text):
        clause_end = _match_balanced(text, m.end() - 1)
        if clause_end < 0:
            continue
        clause = text[m.end():clause_end - 1].strip()
        i = clause_end
        while i < len(text) and text[i].isspace():
            i += 1
        if i >= len(text) or text[i] != "{":
            continue
        body_end = _match_balanced(text, i, "{}")
        if body_end < 0:
            continue
        body = text[i + 1:body_end - 1]
        if clause == "...":
            type_name, var = "...", ""
        else:
            idents = [t for t in _IDENT_RE.findall(clause)
                      if t not in _CPP_KEYWORDS and t != "std"]
            if not idents:
                continue
            # `const ns::Type& name` -> type is the last ident before any
            # declarator name; a trailing ident after the type chain is the
            # binding. Heuristic: '&'/'*' splits type from binding.
            amp = max(clause.rfind("&"), clause.rfind("*"))
            if amp >= 0:
                type_part = clause[:amp]
                var_part = clause[amp + 1:]
            else:
                type_part, var_part = clause, ""
            tids = [t for t in _IDENT_RE.findall(type_part)
                    if t not in _CPP_KEYWORDS and t != "std"]
            vids = _IDENT_RE.findall(var_part)
            if not tids:
                tids = idents
            type_name = tids[-1]
            var = vids[0] if vids else ""
        out.append(CatchSite(path=sf.path, line=_line_of(text, m.start()),
                             type_name=type_name, var=var, body=body))
    return out


# -- the model --------------------------------------------------------------

# Directories whose code may hold OS-thread locks; the lockset analysis
# extracts every function in these.
LOCK_SCOPE_DIRS = ("parallel", "comm", "sim", "serve", "resilience")

_INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')

# Names constants follow the k-prefix convention; used for header provides.
_KCONST_RE = re.compile(r"\bk[A-Z]\w*\b")
_PROVIDE_RES = (
    re.compile(r"\b(?:class|struct|union|concept)\s+([A-Za-z_]\w*)"),
    re.compile(r"\benum\s+(?:class\s+|struct\s+)?([A-Za-z_]\w*)"),
    re.compile(r"\busing\s+([A-Za-z_]\w*)\s*="),
    re.compile(r"^\s*#\s*define\s+([A-Za-z_]\w*)", re.M),
)


def _top_dir(path):
    parts = path.replace("\\", "/").split("/")
    if len(parts) >= 2 and parts[0] == "src":
        return parts[1]
    return ""


class ProgramModel:
    """Whole-program view: include graph, symbols, locks, errors, catches."""

    def __init__(self, root, sources):
        self.root = root
        self.files = {sf.path: sf for sf in sources}
        self.includes = {}  # path -> [IncludeEdge]
        self.idents = {}  # path -> set of identifier tokens in code
        self.provides = {}  # path -> public-symbol set (headers)
        self.functions = []  # [Function]
        self.by_short = {}  # short name -> [Function]
        self.lock_edges = {}  # (l1, l2) -> [(path, line, via)]
        self.cv_names = set()
        self.mutex_owners = {}
        self.error_family = set()
        self.catches = []  # [CatchSite] (src/ files)
        self._usage = None  # [SourceFile] under USAGE_DIRS, on first use
        self._build(sources)

    # include resolution: repo includes are quoted src-rooted paths.
    def _resolve(self, includer, target):
        cand = "src/" + target
        if cand in self.files:
            return cand
        rel = os.path.normpath(
            os.path.join(os.path.dirname(includer), target))
        rel = rel.replace("\\", "/")
        return rel if rel in self.files else ""

    def _build(self, sources):
        for sf in sources:
            code = "\n".join(sf.code_lines)
            self.idents[sf.path] = set(_IDENT_RE.findall(code))
            edges = []
            for idx, line in enumerate(sf.lines):
                m = _INCLUDE_RE.match(line)
                if m:
                    edges.append(IncludeEdge(
                        line=idx + 1, target=m.group(1),
                        resolved=self._resolve(sf.path, m.group(1))))
            self.includes[sf.path] = edges
            provides = set()
            for rx in _PROVIDE_RES:
                provides.update(rx.findall(code))
            provides.update(
                m.group(1) for m in _CALLISH_RE.finditer(code)
                if m.group(1) not in _CPP_KEYWORDS)
            provides.update(_KCONST_RE.findall(code))
            self.provides[sf.path] = provides - _CPP_KEYWORDS

        # Error hierarchy: transitive closure of classes deriving from Error.
        derived = {}  # base -> {derived}
        base_rx = re.compile(
            r"\b(?:class|struct)\s+([A-Za-z_]\w*)(?:\s+final)?\s*:"
            r"([^{;]*)\{")
        for sf in sources:
            code = "\n".join(sf.code_lines)
            for m in base_rx.finditer(code):
                name, bases = m.group(1), m.group(2)
                for b in _IDENT_RE.findall(bases):
                    if b in ("public", "private", "protected", "virtual",
                             "std"):
                        continue
                    derived.setdefault(b, set()).add(name)
        family = {"Error"}
        frontier = ["Error"]
        while frontier:
            for d in derived.get(frontier.pop(), ()):
                if d not in family:
                    family.add(d)
                    frontier.append(d)
        self.error_family = family

        # Locks: scan member declarations first, then every function in the
        # lock-scope dirs.
        scoped = [sf for sf in sources
                  if _top_dir(sf.path) in LOCK_SCOPE_DIRS]
        self.mutex_owners, self.cv_names = _scan_mutex_owners(scoped)
        for sf in scoped:
            text = "\n".join(sf.code_lines)
            for name, b0, b1, line in extract_functions(sf):
                fn = Function(name=name, short=name.split("::")[-1],
                              path=sf.path, line=line)
                body = text[b0:b1]
                _scan_function_locks(fn, body, _line_of(text, b0),
                                     self.mutex_owners, sf.path)
                self.functions.append(fn)
                self.by_short.setdefault(fn.short, []).append(fn)

        # Interprocedural lock closure: locks a function may acquire,
        # directly or through calls into other analyzed functions.
        closure = {id(f): set(f.locks) for f in self.functions}
        changed = True
        while changed:
            changed = False
            for f in self.functions:
                mine = closure[id(f)]
                before = len(mine)
                for c in f.calls:
                    for g in self.by_short.get(c.callee, ()):
                        if g is not f:
                            mine |= closure[id(g)]
                if len(mine) != before:
                    changed = True
        self.lock_closure = closure

        # Global acquisition-order graph: intraprocedural nesting edges plus
        # edges through calls made while holding a lock.
        for f in self.functions:
            for l1, l2, line in f.lock_edges:
                self.lock_edges.setdefault((l1, l2), []).append(
                    (f.path, line, f.name))
            for c in f.calls:
                callee_locks = set()
                for g in self.by_short.get(c.callee, ()):
                    callee_locks |= closure[id(g)]
                for h in c.held:
                    for l2 in callee_locks:
                        if l2 != h:
                            self.lock_edges.setdefault((h, l2), []).append(
                                (f.path, c.line,
                                 f"{f.name} -> {c.callee}()"))

        # Catch sites (src/ only; tests assert on exceptions freely).
        for sf in sources:
            if sf.path.replace("\\", "/").startswith("src/"):
                self.catches.extend(_extract_catches(sf))

    def usage_sources(self):
        """Every source under root's USAGE_DIRS (the linted files plus
        read-only trees such as perfbench/), parsed once and cached."""
        if self._usage is None:
            self._usage = []
            for path in collect_files(self.root, [
                    os.path.join(self.root, d) for d in USAGE_DIRS
                    if os.path.isdir(os.path.join(self.root, d))]):
                sf = parse_source(path, self.root)
                self._usage.append(self.files.get(sf.path, sf))
        return self._usage

    def function(self, qualified):
        for f in self.functions:
            if f.name == qualified:
                return f
        return None


def _strongly_connected(nodes, edges_of):
    """Iterative Tarjan; returns the list of SCCs (each a list of nodes)."""
    index = {}
    low = {}
    on_stack = set()
    stack = []
    sccs = []
    counter = [0]
    for start in nodes:
        if start in index:
            continue
        work = [(start, iter(edges_of(start)))]
        index[start] = low[start] = counter[0]
        counter[0] += 1
        stack.append(start)
        on_stack.add(start)
        while work:
            node, it = work[-1]
            advanced = False
            for nxt in it:
                if nxt not in index:
                    index[nxt] = low[nxt] = counter[0]
                    counter[0] += 1
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(edges_of(nxt))))
                    advanced = True
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                scc = []
                while True:
                    top = stack.pop()
                    on_stack.discard(top)
                    scc.append(top)
                    if top == node:
                        break
                sccs.append(scc)
    return sccs


# -- analysis registry ------------------------------------------------------

ANALYSES = {}


class Analysis:
    def __init__(self, name, invariant, check):
        self.name = name
        self.invariant = invariant
        self.check = check


def analysis(name, invariant):
    """Registers ``fn(model) -> iterable[Finding]`` as a whole-program
    analysis. Finding.key must be stable across line-number drift so the
    baseline file can grandfather it."""

    def deco(fn):
        ANALYSES[name] = Analysis(name, invariant, fn)
        return fn

    return deco


def load_layer_manifest(root):
    """Loads scripts/lint/layers.json under root. Returns the list of layers
    (each a list of src/ top-level dirs) or None when absent — the layer-DAG
    analysis is manifest-driven and silently inactive without one (fixture
    roots opt in by committing their own manifest)."""
    path = os.path.join(root, "scripts", "lint", "layers.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as f:
        data = json.load(f)
    return data["layers"]


@analysis(
    "layer-dag",
    "architecture layering (DESIGN.md section 17): the committed layer "
    "manifest (scripts/lint/layers.json) is the allowed dependency order of "
    "src/ subsystems; the real include graph may not include upward or "
    "laterally across layers, may not form cycles, and every repo include "
    "must be used (IWYU-lite: the includer references at least one symbol "
    "the header provides)",
)
def layer_dag(model):
    layers = load_layer_manifest(model.root)
    if layers is None:
        return
    layer_of = {}
    for i, layer in enumerate(layers):
        for d in layer:
            layer_of[d] = i

    src_files = sorted(p for p in model.files
                       if p.replace("\\", "/").startswith("src/"))

    # (a) every src/ directory with sources is a manifest citizen.
    seen_dirs = set()
    for path in src_files:
        d = _top_dir(path)
        if d and d not in layer_of and d not in seen_dirs:
            seen_dirs.add(d)
            yield Finding(
                "layer-dag", path, 1,
                f"src/{d}/ is not listed in scripts/lint/layers.json; add "
                "it to the layer manifest so its dependencies are checked",
                key=f"unlisted:{d}")

    # (b) includes must point strictly down the layer stack.
    for path in src_files:
        src_dir = _top_dir(path)
        if src_dir not in layer_of:
            continue
        for e in model.includes[path]:
            if not e.resolved or not e.resolved.startswith("src/"):
                continue
            dst_dir = _top_dir(e.resolved)
            if dst_dir == src_dir or dst_dir not in layer_of:
                continue
            if layer_of[dst_dir] >= layer_of[src_dir]:
                how = ("upward" if layer_of[dst_dir] > layer_of[src_dir]
                       else "lateral")
                yield Finding(
                    "layer-dag", path, e.line,
                    f"{how} include: src/{src_dir}/ (layer "
                    f"{layer_of[src_dir]}) may not include "
                    f"\"{e.target}\" from src/{dst_dir}/ (layer "
                    f"{layer_of[dst_dir]}); the manifest orders "
                    f"{dst_dir} at or above {src_dir}",
                    key=f"{how}:{path}->{dst_dir}")

    # (c) no include cycles anywhere in src/.
    def edges_of(p):
        return sorted({e.resolved for e in model.includes.get(p, ())
                       if e.resolved and e.resolved.startswith("src/")})

    for scc in _strongly_connected(src_files, edges_of):
        self_loop = len(scc) == 1 and scc[0] in edges_of(scc[0])
        if len(scc) < 2 and not self_loop:
            continue
        members = sorted(scc)
        anchor = members[0]
        anchor_line = 1
        for e in model.includes[anchor]:
            if e.resolved in scc:
                anchor_line = e.line
                break
        yield Finding(
            "layer-dag", anchor, anchor_line,
            "include cycle: " + " -> ".join(members + [members[0]]) +
            "; break the cycle with a forward declaration or by moving the "
            "shared piece down a layer",
            key="cycle:" + "|".join(members))

    # (d) IWYU-lite: a repo include whose provided symbols the includer
    # never references is a phantom dependency that widens rebuilds and
    # hides the real layering.
    for path in src_files:
        stem = os.path.splitext(os.path.basename(path))[0]
        own = os.path.dirname(path).replace("\\", "/") + f"/{stem}.hpp"
        used = model.idents[path]
        for e in model.includes[path]:
            if not e.resolved or not e.resolved.startswith("src/"):
                continue
            if path.endswith(".cpp") and e.resolved == own:
                continue  # own header: always included, proves completeness
            provided = model.provides.get(e.resolved, set())
            if provided and not (provided & used):
                yield Finding(
                    "layer-dag", path, e.line,
                    f"unused include \"{e.target}\": nothing this file "
                    "references is provided by that header; drop it (or "
                    "suppress with a reason when re-exporting "
                    "deliberately)",
                    key=f"unused:{path}->{e.resolved}")


@analysis(
    "lock-order",
    "deadlock freedom (DESIGN.md section 17): across src/parallel, "
    "src/comm, src/sim, src/serve, and src/resilience, the global "
    "lock-acquisition-order graph (lock A held while acquiring lock B, "
    "directly or through calls) must be acyclic, and every "
    "condition_variable::wait must pass a predicate so spurious wakeups "
    "cannot break the invariant the wait guards",
)
def lock_order(model):
    nodes = sorted({l for pair in model.lock_edges for l in pair})
    adj = {}
    for (a, b) in model.lock_edges:
        adj.setdefault(a, set()).add(b)

    def edges_of(n):
        return sorted(adj.get(n, ()))

    for scc in _strongly_connected(nodes, edges_of):
        self_loop = len(scc) == 1 and scc[0] in adj.get(scc[0], ())
        if len(scc) < 2 and not self_loop:
            continue
        members = sorted(scc)
        witnesses = []
        for (a, b), sites in sorted(model.lock_edges.items()):
            if a in scc and b in scc:
                p, line, via = sites[0]
                witnesses.append(f"{a} -> {b} at {p}:{line} ({via})")
        p, line, _ = next(
            sites[0] for (a, b), sites in sorted(model.lock_edges.items())
            if a in scc and b in scc)
        yield Finding(
            "lock-order", p, line,
            "potential deadlock: lock-order cycle between "
            + ", ".join(members) + "; " + "; ".join(witnesses)
            + " — pick one global order (or suppress with a reason if the "
            "locks can provably never contend)",
            key="lock-cycle:" + "|".join(members))

    # cv.wait without a predicate: scan lock-scope files for waits on a
    # declared condition_variable whose argument list has no predicate.
    wait_rx = re.compile(r"\b([A-Za-z_]\w*)\s*\.\s*wait\s*\(")
    for path in sorted(model.files):
        if _top_dir(path) not in LOCK_SCOPE_DIRS:
            continue
        sf = model.files[path]
        text = "\n".join(sf.code_lines)
        for m in wait_rx.finditer(text):
            if m.group(1) not in model.cv_names:
                continue
            args = _split_top_level_args(text[m.end():])
            if args is not None and len(args) == 1:
                yield Finding(
                    "lock-order", path, _line_of(text, m.start()),
                    f"{m.group(1)}.wait(lock) without a predicate: a "
                    "spurious wakeup returns with the condition false; "
                    "pass the predicate lambda so the wait re-checks it",
                    key=f"cv-wait:{path}:{m.group(1)}")


@analysis(
    "error-flow",
    "typed-error flow (DESIGN.md section 17): a catch clause that can bind "
    "a burst::Error (a subclass, std::exception, or ...) may not silently "
    "swallow it — the handler must rethrow, convert to a typed error, or "
    "visibly consume the exception; an empty handler erases the failure "
    "from every supervisor and report downstream",
)
def error_flow(model):
    swallowable = model.error_family | {
        "exception", "runtime_error", "logic_error", "..."}
    for c in model.catches:
        if c.type_name not in swallowable:
            continue
        body = c.body
        if re.search(r"\bthrow\b", body):
            continue  # rethrow or typed conversion
        if c.var and re.search(rf"\b{re.escape(c.var)}\b", body):
            continue  # the handler reads the error: consumed visibly
        if _CALLISH_RE.search(body):
            continue  # delegates somewhere (logging, conversion helper)
        if re.search(r"[^=!<>+\-*/&|^]=[^=]", body):
            continue  # records the failure in state: classification, not loss
        yield Finding(
            "error-flow", c.path, c.line,
            f"catch ({c.type_name}) swallows the error: the body neither "
            "rethrows, converts to a typed burst::Error, nor consumes the "
            "exception; handle it or suppress with a reason explaining "
            "why dropping is correct",
            key=f"swallow:{c.path}:{c.type_name}")


# -- orphan declarations ----------------------------------------------------

# Statements at namespace scope that never declare a free function.
_NON_FUNCTION_LEADS = frozenset(
    ["class", "struct", "union", "enum", "using", "typedef", "namespace",
     "static_assert", "friend", "concept"])


def _strip_template_prefix(stmt):
    """Drops leading `template <...>` clauses and `[[attributes]]`."""
    while True:
        stmt = stmt.lstrip()
        if stmt.startswith("[["):
            close = stmt.find("]]")
            if close < 0:
                return stmt
            stmt = stmt[close + 2:]
            continue
        m = re.match(r"template\s*<", stmt)
        if not m:
            return stmt
        end = _match_balanced(stmt, m.end() - 1, "<>")
        if end < 0:
            return stmt
        stmt = stmt[end:]


def _free_function_name(stmt):
    """The unqualified name `stmt` (one namespace-scope statement, up to its
    ';' or body '{') declares as a free function, or None."""
    stmt = _strip_template_prefix(stmt)
    lead = _IDENT_RE.match(stmt)
    if not lead or lead.group(0) in _NON_FUNCTION_LEADS:
        return None
    paren = stmt.find("(")
    if paren < 0:
        return None
    head = stmt[:paren]
    if "=" in head or "operator" in _IDENT_RE.findall(head):
        return None  # a variable initializer or an operator overload
    m = re.search(r"(?:^|[^\w:])([A-Za-z_]\w*)\s*$", head)
    if not m or m.group(1) in _CPP_KEYWORDS:
        return None
    if not head[:m.start(1)].strip():
        return None  # no return type: a macro invocation
    return m.group(1)


def _code_text(sf):
    """sf's code with preprocessor lines blanked (offsets preserved)."""
    return "\n".join(
        " " * len(line) if line.lstrip().startswith("#") else line
        for line in sf.code_lines)


def _namespace_scope_functions(sf):
    """Yields (name, start, end) for every free function declared (or
    defined inline) at namespace scope in sf; [start, end) spans the whole
    declaration, body included."""
    text = _code_text(sf)
    stmt_start = 0
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == ";":
            name = _free_function_name(text[stmt_start:i])
            if name:
                yield name, stmt_start, i + 1
            stmt_start = i + 1
        elif c == "}":  # closes a namespace: other blocks are skipped whole
            stmt_start = i + 1
        elif c == "{":
            stmt = text[stmt_start:i]
            if re.match(r"\s*(?:inline\s+)?namespace\b[\w:\s]*$", stmt):
                stmt_start = i + 1
            else:
                close = _match_balanced(text, i, "{}")
                if close < 0:
                    return
                name = _free_function_name(stmt)
                if name:
                    yield name, stmt_start, close
                    stmt_start = close
                i = close
                continue
        i += 1


def _definition_end(text, pos, name):
    """When the `name` token at text[pos] heads a function definition,
    returns the index just past its body; otherwise -1."""
    i = pos + len(name)
    while i < len(text) and text[i].isspace():
        i += 1
    if i >= len(text) or text[i] != "(":
        return -1
    params_end = _match_balanced(text, i)
    if params_end < 0:
        return -1
    body = _find_body(text, params_end)
    if body < 0:
        return -1
    return _match_balanced(text, body, "{}")


# Trees whose code counts as a use. perfbench/ is read here but never linted.
USAGE_DIRS = ("src", "tests", "bench", "examples", "perfbench")


@analysis(
    "orphan-decl",
    "no dead code: a free function declared at namespace scope in a src/ "
    "header must be named somewhere in src/, tests/, bench/, examples/ or "
    "perfbench/ outside its own declaration and definition; test-only "
    "helpers and reference implementations count as used",
)
def orphan_decl(model):
    decls = {}  # name -> [(path, start, end)]
    for path in sorted(model.files):
        if not (path.startswith("src/") and path.endswith((".hpp", ".h"))):
            continue
        for name, start, end in _namespace_scope_functions(model.files[path]):
            decls.setdefault(name, []).append((path, start, end))
    if not decls:
        return

    used = set()
    for sf in model.usage_sources():
        text = "\n".join(sf.code_lines)
        skip_until = {}  # name -> end of the definition being skipped
        for m in _IDENT_RE.finditer(text):
            name = m.group(0)
            if name not in decls or name in used:
                continue
            pos = m.start()
            if pos < skip_until.get(name, -1):
                continue
            if any(p == sf.path and a <= pos < b for p, a, b in decls[name]):
                continue
            end = _definition_end(text, pos, name)
            if end >= 0:
                skip_until[name] = end
                continue
            used.add(name)

    for name in sorted(set(decls) - used):
        path, start, _ = decls[name][0]
        text = "\n".join(model.files[path].code_lines)
        line = _line_of(text, text.index(name, start))
        yield Finding(
            "orphan-decl", path, line,
            f"free function `{name}` is named nowhere in "
            + ", ".join(f"{d}/" for d in USAGE_DIRS)
            + " outside its own declaration and definition; delete it",
            key=f"orphan:{name}")


# -- unset options ----------------------------------------------------------

# Option structs: every struct whose name ends in one of these suffixes, plus
# comm::Reliability.
_OPTION_SUFFIXES = ("Config", "Spec", "Options", "Inputs")
_OPTION_EXTRA = frozenset(["Reliability"])
_STRUCT_HEAD_RE = re.compile(r"\bstruct\s+([A-Za-z_]\w*)\s*(?:final\s*)?\{")
_ACCESS_RE = re.compile(r"^\s*(?:(?:public|private|protected)\s*:\s*)+")
_TYPE_LEADS = frozenset(["struct", "class", "enum", "union"])
_NON_MEMBER_LEADS = _TYPE_LEADS | frozenset(
    ["static", "using", "typedef", "friend", "template", "static_assert"])
# A member write: `.f =` / `->f =` / `.f +=` (any compound assignment),
# `.f.<member> =`, `.f.<method>(`, or `.f[`.
_ASSIGN = r"(?:(?:[-+*/%&|^]|<<|>>)?=(?!=))"
_FIELD_WRITE_RE = re.compile(
    r"(?:\.|->)\s*([A-Za-z_]\w*)(?=\s*(?:" + _ASSIGN +
    r"|\[|\.\s*[A-Za-z_]\w*\s*(?:" + _ASSIGN + r"|\()))")


def _strip_angle_args(decl):
    """Drops every balanced `<...>` template-argument list from decl."""
    out = []
    depth = 0
    for ch in decl:
        if ch == "<":
            depth += 1
        elif ch == ">" and depth > 0:
            depth -= 1
        elif depth == 0:
            out.append(ch)
    return "".join(out)


def _member_names(stmt):
    """(name, offset in stmt) for each data member one struct-body
    statement declares; [] for functions, types, aliases and statics."""
    stmt = _ACCESS_RE.sub(lambda m: " " * len(m.group(0)), stmt)
    lead = _IDENT_RE.match(stmt.lstrip())
    if not lead or lead.group(0) in _NON_MEMBER_LEADS:
        return []
    if "operator" in _IDENT_RE.findall(stmt):
        return []
    names = []
    for decl in _split_top_level_args(_strip_angle_args(stmt) + ")") or ():
        decl = decl.split("=", 1)[0]
        if "(" in decl:
            return []  # a member function (or constructor) declaration
        idents = _IDENT_RE.findall(re.sub(r"\[[^\]]*\]", "", decl))
        if idents and idents[-1] not in _CPP_KEYWORDS:
            names.append(idents[-1])
    out = []
    for name in names:
        m = re.search(r"\b" + name + r"\b(?=[\s\[]*(?:[=,]|$))", stmt)
        out.append((name, m.start() if m else 0))
    return out


def _opens_scope(head):
    """True when the `{` after statement head `head` opens a member-function
    body or a nested type rather than a brace initializer."""
    head = _ACCESS_RE.sub("", head).lstrip()
    lead = _IDENT_RE.match(head)
    if lead and lead.group(0) in _TYPE_LEADS:
        return True
    return "(" in _strip_angle_args(head).split("=", 1)[0]


def _struct_members(text, body_start, body_end):
    """Yields (name, pos) for each non-static data member declared at the
    top level of the struct body text[body_start:body_end]."""
    # Blank every brace block; a function body or nested type also ends its
    # statement, since neither takes a ';'.
    body = list(text[body_start:body_end])
    stmt_start = 0
    i = 0
    while i < len(body):
        if body[i] == ";":
            stmt_start = i + 1
        elif body[i] == "{":
            close = _match_balanced(text, body_start + i, "{}") - body_start
            if close <= i:
                return
            scope = _opens_scope("".join(body[stmt_start:i]))
            body[i:close] = " " * (close - i)
            if scope:
                body[close - 1] = ";"
                stmt_start = close
            i = close
            continue
        i += 1
    offset = body_start
    for stmt in "".join(body).split(";"):
        for name, at in _member_names(stmt):
            yield name, offset + at
        offset += len(stmt) + 1


def _option_structs(model):
    """Yields (struct name, header path, [(member, pos)], text) for every
    option struct declared in a src/ header."""
    for path in sorted(model.files):
        if not (path.startswith("src/") and path.endswith((".hpp", ".h"))):
            continue
        text = _code_text(model.files[path])
        for m in _STRUCT_HEAD_RE.finditer(text):
            name = m.group(1)
            if not (name.endswith(_OPTION_SUFFIXES) or name in _OPTION_EXTRA):
                continue
            end = _match_balanced(text, m.end() - 1, "{}")
            if end < 0:
                continue
            members = list(_struct_members(text, m.end(), end - 1))
            yield name, path, members, text


def _positional_writes(text, struct_names):
    """Yields (struct name, argument count) for each positional aggregate
    initializer `Type{a, b}` or `Type var{a, b}` of a named struct in text.
    Designated initializers (`.f = x`) are left to _FIELD_WRITE_RE."""
    rx = re.compile(
        r"\b(" + "|".join(sorted(map(re.escape, struct_names))) +
        r")\s*(?:[A-Za-z_]\w*\s*)?\{")
    for m in rx.finditer(text):
        args = _split_top_level_args(text[m.end():])
        if args is None:
            continue
        args = [a for a in args if a]
        if args and not args[0].startswith("."):
            yield m.group(1), len(args)


@analysis(
    "unset-option",
    "no dead options: every non-static data member of a src/ struct named "
    "*Config, *Spec, *Options or *Inputs (and comm::Reliability) must be "
    "written somewhere in src/, tests/, bench/, examples/ or perfbench/ "
    "outside its declaring header and that header's same-stem .cpp; a "
    "member nobody sets is a constant",
)
def unset_option(model):
    structs = list(_option_structs(model))
    if not structs:
        return
    names = {name for name, _, _, _ in structs}

    written = {}  # member name -> {path}
    positional = {}  # (struct name, index) -> {path}
    for sf in model.usage_sources():
        text = _code_text(sf)
        for m in _FIELD_WRITE_RE.finditer(text):
            written.setdefault(m.group(1), set()).add(sf.path)
        for name, n in _positional_writes(text, names):
            for k in range(n):
                positional.setdefault((name, k), set()).add(sf.path)

    for name, path, members, text in structs:
        own = {path, os.path.splitext(path)[0] + ".cpp"}
        for k, (member, pos) in enumerate(members):
            if written.get(member, set()) - own:
                continue
            if positional.get((name, k), set()) - own:
                continue
            yield Finding(
                "unset-option", path, _line_of(text, pos),
                f"option `{name}::{member}` is written nowhere in "
                + ", ".join(f"{d}/" for d in USAGE_DIRS)
                + " outside its own header and .cpp; make it a constant "
                "where it is read",
                key=f"unset:{name}::{member}")


# -- baseline ---------------------------------------------------------------


def default_baseline_path(root):
    return os.path.join(root, "scripts", "lint", "baseline.json")


def load_baseline(path):
    """Returns the set of (rule, path, key) triples grandfathered in the
    committed baseline, or an empty set when the file does not exist."""
    if not path or not os.path.exists(path):
        return set()
    with open(path, encoding="utf-8") as f:
        data = json.load(f)
    return {(e["rule"], e["path"], e["key"]) for e in data.get("findings", ())}


def write_baseline_file(path, findings):
    entries = sorted(
        {(f.rule, f.path, f.key) for f in findings if f.key})
    data = {
        "schema": "burst.lint_baseline",
        "version": 1,
        "comment": (
            "Grandfathered whole-program findings. Entries are matched by "
            "(rule, path, key) so line drift does not invalidate them; "
            "regenerate with burst_lint.py --write-baseline. Stale entries "
            "(matching nothing) are themselves lint violations."),
        "findings": [
            {"rule": r, "path": p, "key": k} for r, p, k in entries],
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(data, f, indent=2)
        f.write("\n")


def run_analyses(model, baseline):
    """Runs every registered analysis, applying inline suppressions and the
    baseline. Returns (reported, baselined_count, stale_entries)."""
    reported = []
    matched = set()
    baselined = 0
    for a in ANALYSES.values():
        for f in a.check(model) or ():
            sf = model.files.get(f.path)
            if sf is not None and sf.is_allowed(a.name, f.line):
                continue
            triple = (f.rule, f.path, f.key)
            if f.key and triple in baseline:
                matched.add(triple)
                baselined += 1
                continue
            reported.append(f)
    stale = sorted(baseline - matched)
    return reported, baselined, stale


# --------------------------------------------------------------------------
# Directive resolution (needs RULES populated, hence defined last)
# --------------------------------------------------------------------------


def resolve_directives(sf):
    """Fills sf.allowed / sf.file_allowed / sf.hotpath.

    Returns findings for malformed directives (unknown rule names, unmatched
    allow-begin/allow-end) under the synthetic rule name ``lint-directive``.
    """
    bad = []
    open_blocks = {}  # rule -> start line
    for d in sf.directives:
        if d.verb == "hotpath":
            sf.hotpath = True
            continue
        if not d.rules:
            bad.append(
                Finding(
                    "lint-directive",
                    sf.path,
                    d.line,
                    f"burst-lint: {d.verb} needs a (rule-name) argument",
                )
            )
            continue
        for r in d.rules:
            if r not in RULES and r not in ANALYSES:
                known = sorted(RULES) + sorted(ANALYSES)
                bad.append(
                    Finding(
                        "lint-directive",
                        sf.path,
                        d.line,
                        f"unknown rule '{r}' in burst-lint: {d.verb} "
                        f"(known: {', '.join(known)})",
                    )
                )
                continue
            lines = sf.allowed.setdefault(r, set())
            if d.verb == "allow":
                lines.add(d.line)
                # Directive-on-its-own-line form: cover the next *code* line,
                # skipping the rest of a multi-line justification comment.
                nxt = d.line + 1
                while (nxt <= len(sf.lines)
                       and sf.lines[nxt - 1].strip()
                       and not sf.code_lines[nxt - 1].strip()):
                    nxt += 1
                lines.add(nxt)
            elif d.verb == "allow-file":
                sf.file_allowed.add(r)
            elif d.verb == "allow-begin":
                open_blocks[r] = d.line
            elif d.verb == "allow-end":
                start = open_blocks.pop(r, None)
                if start is None:
                    bad.append(
                        Finding(
                            "lint-directive",
                            sf.path,
                            d.line,
                            f"allow-end({r}) without a matching allow-begin",
                        )
                    )
                else:
                    lines.update(range(start, d.line + 1))
    for r, start in open_blocks.items():
        bad.append(
            Finding(
                "lint-directive",
                sf.path,
                start,
                f"allow-begin({r}) never closed with allow-end({r})",
            )
        )
    return bad


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------

SCAN_DIRS = ("src", "tests", "bench", "examples")
CXX_EXT = (".cpp", ".hpp", ".cc", ".h")


def collect_files(root, paths):
    files = []
    if paths:
        for p in paths:
            ap = os.path.abspath(p)
            if os.path.isdir(ap):
                for dirpath, _, names in sorted(os.walk(ap)):
                    for name in sorted(names):
                        if name.endswith(CXX_EXT):
                            files.append(os.path.join(dirpath, name))
            else:
                files.append(ap)
    else:
        for d in SCAN_DIRS:
            base = os.path.join(root, d)
            if not os.path.isdir(base):
                continue
            for dirpath, _, names in sorted(os.walk(base)):
                for name in sorted(names):
                    if name.endswith(CXX_EXT):
                        files.append(os.path.join(dirpath, name))
    return files


def parse_source(abs_path, root):
    display = os.path.relpath(abs_path, root).replace("\\", "/")
    if display.startswith(".."):
        display = abs_path
    sf = parse_file(abs_path, display)
    sf.abs_path = abs_path
    return sf


def check_rules(sf):
    findings = resolve_directives(sf)
    for r in RULES.values():
        if not r.applies(sf.path):
            continue
        for line, message in r.check(sf) or ():
            if sf.is_allowed(r.name, line):
                continue
            findings.append(Finding(r.name, sf.path, line, message))
    return findings


def lint_file(abs_path, root):
    """Per-file rules only (tier 1); kept for one-file spot checks."""
    return check_rules(parse_source(abs_path, root))


def write_report(path, files_scanned, findings, baselined=0):
    per_rule = {name: 0 for name in sorted(RULES)}
    per_rule.update({name: 0 for name in sorted(ANALYSES)})
    per_rule["lint-directive"] = 0
    for f in findings:
        per_rule[f.rule] = per_rule.get(f.rule, 0) + 1
    checks = [
        {"ok": count == 0, "what": f"lint rule {name}: {count} violation(s)"}
        for name, count in sorted(per_rule.items())
    ]
    report = {
        "schema": "burst.run_report",
        "version": 1,
        "kind": "lint",
        "name": "burst_lint",
        "config": {
            "rules": ", ".join(sorted(RULES)),
            "analyses": ", ".join(sorted(ANALYSES)),
            "files_scanned": files_scanned,
        },
        "measurements": [
            {
                "name": "files_scanned",
                "measured": files_scanned,
                "paper_value": None,
                "unit": "files",
            },
            {
                "name": "violations",
                "measured": len(findings),
                "paper_value": None,
                "unit": "findings",
            },
        ],
        "metrics": {
            "counters": dict(
                {f"lint.{k}": v for k, v in sorted(per_rule.items())},
                **{"lint.baselined": baselined},
            ),
            "gauges": {},
            "histograms": {},
        },
        "checks": checks,
        "errors": [
            {"code": f"lint.{f.rule}", "message": f.render()} for f in findings
        ],
        "self_check": not findings,
    }
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(report, fp, indent=2)
        fp.write("\n")


def main(argv=None):
    ap = argparse.ArgumentParser(
        description="BurstEngine repo lint", usage=__doc__
    )
    default_root = os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )
    ap.add_argument("--root", default=default_root)
    ap.add_argument("--json", dest="json_out", default=None)
    ap.add_argument("--list-rules", action="store_true")
    ap.add_argument(
        "--baseline", default=None,
        help="baseline file for whole-program findings (default: "
        "scripts/lint/baseline.json under --root, when present)")
    ap.add_argument(
        "--write-baseline", action="store_true",
        help="write the surviving whole-program findings to the baseline "
        "file and exit 0; subsequent runs treat them as grandfathered")
    ap.add_argument(
        "--no-analyses", action="store_true",
        help="run only the per-file rules (tier 1), skipping the "
        "ProgramModel analyses")
    ap.add_argument("paths", nargs="*")
    args = ap.parse_args(argv)

    if args.list_rules:
        for name in sorted(RULES):
            print(f"{name}: {RULES[name].invariant}")
        for name in sorted(ANALYSES):
            print(f"{name} [whole-program]: {ANALYSES[name].invariant}")
        return 0

    root = os.path.abspath(args.root)
    files = collect_files(root, args.paths)
    sources = [parse_source(p, root) for p in files]

    findings = []
    for sf in sources:
        findings.extend(check_rules(sf))

    baselined = 0
    if not args.no_analyses:
        model = ProgramModel(root, sources)
        baseline_path = args.baseline or default_baseline_path(root)
        # Regeneration captures every current finding, so it runs against an
        # empty baseline; normal runs grandfather via the committed one.
        baseline = set() if args.write_baseline else load_baseline(
            baseline_path)
        analysis_findings, baselined, stale = run_analyses(model, baseline)
        if args.write_baseline:
            write_baseline_file(baseline_path, analysis_findings)
            print(f"burst-lint: wrote {len(analysis_findings)} "
                  f"grandfathered finding(s) to {baseline_path}")
            return 0
        findings.extend(analysis_findings)
        for rule_name, path, key in stale:
            findings.append(Finding(
                "lint-directive", path, 1,
                f"stale baseline entry ({rule_name}: {key}) matches no "
                "current finding; remove it from the baseline file"))

    findings.sort(key=lambda f: (f.path, f.line, f.rule))

    for f in findings:
        print(f.render(), file=sys.stderr)
    if args.json_out:
        write_report(args.json_out, len(files), findings, baselined)
    status = "clean" if not findings else f"{len(findings)} violation(s)"
    extra = f", {baselined} baselined" if baselined else ""
    print(f"burst-lint: {len(files)} file(s) scanned, {status}{extra}")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
