#!/usr/bin/env python3
"""mrhs_lint: repo-specific invariants no generic linter knows.

Registered as the `mrhs_lint` ctest target. Exit 0 when clean, 1 with
a file:line report otherwise.

Rules
-----
OBS_* literal names, discarded solver statuses and raw
`#pragma omp parallel` are mrhs_analyze.py's obs-placement,
status-propagation and no-raw-omp rules.

solve-status-nodiscard
    The declarations of the solver entry points (and their result
    structs) must stay [[nodiscard]], so the compiler backs
    mrhs_analyze's status-propagation rule: a discarded result carries
    a SolveStatus that reports breakdown or stagnation.

aligned-alloc-outside-util
    Raw std::aligned_alloc / posix_memalign / operator new with
    align_val_t outside util/aligned.hpp bypasses AlignedAllocator and
    its 64-byte contract; consumers must use util::AlignedVector (the
    allocator asserts the contract in one place).

aligned-load-contract
    Files using *aligned* SIMD loads/stores (_mm256_load_pd,
    _mm512_load_pd, ...) on data that crosses a function boundary must
    carry an MRHS_ASSUME_ALIGNED contract (or a local alignas buffer)
    in the same file, so debug/sanitizer builds verify the alignment
    the intrinsic assumes.

no-float-in-double-kernels
    The numerical core (src/sparse, src/solver, src/dense) is
    double-precision end to end; a stray `float` silently halves
    precision (the inverse of the paper's "no double accumulation in
    float kernels" rule — this codebase is the double side).

fault-site-registry
    The first argument of MRHS_FAULT_POINT / MRHS_FAULT_FIRED must be
    a string literal naming a site in the documented kFaultSites table
    (src/util/fault_injection.hpp). A computed name would defeat the
    registry's arm-time validation, and an undocumented site could
    never be armed from the CLI — a chaos schedule naming it would be
    rejected while the site silently never fires.

bench-report
    Every bench binary (bench/*.cpp with a main()) must emit a
    machine-readable BenchReport sidecar via bench::BenchHarness —
    printf-only benches are invisible to scripts/bench_runner.py and
    the BENCH_*.json regression pipeline, so their numbers silently
    fall out of the performance history.

assembly-via-engine
    ResistanceAssembler (and the removed free assemble_resistance) is
    an implementation detail of sd::AssemblyEngine. A direct call
    outside src/sd bypasses the engine's dirty-pair tracking and
    pattern cache, so its matrix silently diverges from the engine's
    incremental state and none of the assembly.* counters fire.
    Construct an AssemblyEngine and use assemble_full() /
    assemble_incremental() instead.

kernel-via-dispatch
    The block-row microkernels (kernels::block_row_*) are internal to
    src/sparse: they are `static inline`, compiled per-TU under
    different -m flags, and only safe to run on the ISA their TU was
    compiled for. A direct call outside src/sparse would bypass the
    runtime cpuid check in kernels::Dispatch and could execute AVX-512
    instructions on a machine without them (SIGILL), and it would skip
    the --kernel / MRHS_KERNEL override. Go through GspmvEngine::apply
    or kernels::Dispatch::select/variant instead.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

NODISCARD_DECLS = {
    "src/solver/cg.hpp": ["CgResult conjugate_gradient",
                          "CgResult preconditioned_conjugate_gradient"],
    "src/solver/block_cg.hpp": ["BlockCgResult block_conjugate_gradient"],
    "src/solver/fault_tolerance.hpp": ["LadderResult block_solve_with_ladder"],
}

FAULT_MACROS = ["MRHS_FAULT_POINT", "MRHS_FAULT_FIRED"]
FAULT_SITE_HEADER = "src/util/fault_injection.hpp"

ALIGNED_LOAD_RE = re.compile(
    r"_mm(?:256|512)_(?:load|store)_(?:pd|ps|si256|si512)\b|"
    r"_mm512_(?:load|store)_epi\d+\b")

DOUBLE_KERNEL_DIRS = ("src/sparse", "src/solver", "src/dense")

# One-line summaries for --list-rules; full rationale lives in the
# module docstring above. The table format is shared with
# scripts/mrhs_analyze.py --list-rules so the two tools read as one
# lint surface.
RULE_SUMMARIES = {
    "solve-status-nodiscard": "solver entry-point declarations stay "
                              "[[nodiscard]]",
    "aligned-alloc-outside-util": "raw aligned allocation only in "
                                  "util/aligned.hpp",
    "aligned-load-contract": "aligned SIMD loads need an "
                             "MRHS_ASSUME_ALIGNED contract in-file",
    "no-float-in-double-kernels": "no float in the double-precision "
                                  "numerical core",
    "fault-site-registry": "MRHS_FAULT_* sites are literals from the "
                           "documented kFaultSites table",
    "bench-report": "every bench binary emits a BenchReport sidecar",
    "assembly-via-engine": "resistance assembly goes through "
                           "sd::AssemblyEngine outside src/sd",
    "kernel-via-dispatch": "block_row_* kernels called only via "
                           "kernels::Dispatch inside src/sparse",
}


def print_rules() -> None:
    print(f"{'rule':<28} {'engine':<12} summary")
    print(f"{'-' * 28} {'-' * 12} {'-' * 40}")
    for name in sorted(RULE_SUMMARIES):
        print(f"{name:<28} {'mrhs_lint':<12} {RULE_SUMMARIES[name]}")


def strip_comments_and_strings(text: str) -> str:
    """Blank out comments and string/char literals, preserving line
    structure exactly (every newline in the input survives, so line
    numbers computed on the result map back to the source)."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            # Skip to (but keep) the newline so line numbers survive.
            # Without the continue the old code appended a stray '/'
            # and swallowed the newline, shifting every later line.
            j = text.find("\n", i)
            j = n if j == -1 else j
            i = j
            continue
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            out.append("".join(ch if ch == "\n" else " " for ch in text[i:j]))
            i = j
            continue
        elif c == '"' or (c == "'" and not (i > 0 and (text[i - 1].isalnum()
                                                       or text[i - 1] == "_"))):
            # The apostrophe guard skips C++14 digit separators
            # (10'000), which are not character literals.
            q = c
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == q:
                    break
                j += 1
            body = "".join(ch if ch == "\n" else " " for ch in text[i + 1:j])
            out.append(q + body + (q if j < n else ""))
            i = j + 1
            continue
        out.append(c)
        i += 1
    return "".join(out)


def load_fault_sites(repo: Path) -> set[str]:
    """Parse the documented site table out of fault_injection.hpp."""
    path = repo / FAULT_SITE_HEADER
    if not path.exists():
        return set()
    m = re.search(r"kFaultSites\[\]\s*=\s*\{(.*?)\};", path.read_text(),
                  re.DOTALL)
    if not m:
        return set()
    return set(re.findall(r'"([^"]+)"', m.group(1)))


class Linter:
    def __init__(self, repo: Path):
        self.repo = repo
        self.findings: list[tuple[str, int, str, str]] = []
        self.fault_sites = load_fault_sites(repo)

    def report(self, path: Path, line: int, rule: str, msg: str) -> None:
        rel = path.relative_to(self.repo)
        self.findings.append((str(rel), line, rule, msg))

    # -- rules ---------------------------------------------------------

    def check_nodiscard_decls(self) -> None:
        for rel, decls in NODISCARD_DECLS.items():
            path = self.repo / rel
            if not path.exists():
                continue
            text = path.read_text()
            for decl in decls:
                idx = text.find(decl)
                if idx == -1:
                    continue  # entry point renamed; discard rule still covers calls
                window = text[max(0, idx - 120):idx]
                if "[[nodiscard]]" not in window:
                    lineno = text.count("\n", 0, idx) + 1
                    self.report(
                        path, lineno, "solve-status-nodiscard",
                        f"declaration of {decl.split()[-1]} must be "
                        f"[[nodiscard]] so discarded solves fail the build")

    def check_aligned_alloc(self, path: Path, raw_lines: list[str]) -> None:
        if path.match("*/util/aligned.hpp"):
            return
        for lineno, line in enumerate(raw_lines, 1):
            code = line.split("//")[0]
            if re.search(r"\b(?:std::)?aligned_alloc\s*\(|\bposix_memalign\s*\(",
                         code) or \
               ("operator new" in code and "align_val_t" in code):
                self.report(
                    path, lineno, "aligned-alloc-outside-util",
                    "raw aligned allocation outside util/aligned.hpp; "
                    "use util::AlignedVector so the 64-byte contract is "
                    "asserted in one place")

    def check_aligned_load_contract(self, path: Path, text: str,
                                    raw_lines: list[str]) -> None:
        hits = []
        for lineno, line in enumerate(raw_lines, 1):
            code = line.split("//")[0]
            if ALIGNED_LOAD_RE.search(code):
                hits.append(lineno)
        if not hits:
            return
        if "MRHS_ASSUME_ALIGNED" in text or "alignas(" in text:
            return
        self.report(
            path, hits[0], "aligned-load-contract",
            "aligned SIMD load/store without an MRHS_ASSUME_ALIGNED "
            "contract (or local alignas buffer) in this file")

    def check_no_float(self, path: Path, raw_lines: list[str]) -> None:
        rel = str(path.relative_to(self.repo))
        if not rel.startswith(DOUBLE_KERNEL_DIRS):
            return
        for lineno, line in enumerate(raw_lines, 1):
            code = strip_comments_and_strings(line.split("//")[0])
            if re.search(r"\bfloat\b", code):
                self.report(
                    path, lineno, "no-float-in-double-kernels",
                    "float in the double-precision numerical core; "
                    "use double (mixed precision silently loses bits)")

    def check_fault_sites(self, path: Path, raw_lines: list[str]) -> None:
        if path.name.startswith("fault_injection."):
            return  # macro definitions + registry implementation
        for lineno, line in enumerate(raw_lines, 1):
            code = line.split("//")[0]
            if "#define" in code:
                continue
            for macro in FAULT_MACROS:
                for m in re.finditer(rf"\b{macro}\s*\(", code):
                    args = code[m.end():].lstrip()
                    lit = re.match(r'"([^"]*)"', args)
                    if lit is None:
                        self.report(
                            path, lineno, "fault-site-registry",
                            f"{macro} site must be a string literal "
                            f"(arm-time validation matches exact names)")
                        continue
                    site = lit.group(1)
                    if self.fault_sites and site not in self.fault_sites:
                        self.report(
                            path, lineno, "fault-site-registry",
                            f'site "{site}" is not in the kFaultSites '
                            f"table ({FAULT_SITE_HEADER}); undocumented "
                            f"sites can never be armed")

    def check_assembly_via_engine(self, path: Path,
                                  raw_lines: list[str]) -> None:
        rel = str(path.relative_to(self.repo))
        if rel.startswith("src/sd/"):
            return  # the engine and the assembler itself live here
        for lineno, line in enumerate(raw_lines, 1):
            code = strip_comments_and_strings(line.split("//")[0])
            if re.search(r"\bResistanceAssembler\b|\bassemble_resistance\s*\(",
                         code):
                self.report(
                    path, lineno, "assembly-via-engine",
                    "direct ResistanceAssembler use outside src/sd bypasses "
                    "sd::AssemblyEngine (dirty-pair tracking, pattern cache, "
                    "assembly.* counters); route through the engine")

    def check_kernel_via_dispatch(self, path: Path,
                                  raw_lines: list[str]) -> None:
        rel = str(path.relative_to(self.repo))
        if rel.startswith("src/sparse/"):
            return  # the kernels, their TUs, and the dispatcher live here
        for lineno, line in enumerate(raw_lines, 1):
            code = strip_comments_and_strings(line.split("//")[0])
            if re.search(r"\bblock_row_\w+\s*\(|\bkernels::block_row_\w+\b",
                         code):
                self.report(
                    path, lineno, "kernel-via-dispatch",
                    "direct block_row_* kernel call outside src/sparse "
                    "bypasses the runtime cpuid dispatch (kernels::Dispatch) "
                    "and the --kernel override; call GspmvEngine::apply or "
                    "Dispatch::select instead")

    def check_bench_report(self, path: Path, text: str) -> None:
        rel = str(path.relative_to(self.repo))
        if not (rel.startswith("bench/") and path.suffix == ".cpp"):
            return
        stripped = strip_comments_and_strings(text)
        if not re.search(r"\bint\s+main\s*\(", stripped):
            return
        if "BenchHarness" not in text and "BenchReport" not in text:
            self.report(
                path, 1, "bench-report",
                "bench binary without a BenchHarness/BenchReport: its "
                "numbers never reach the BENCH_*.json regression "
                "pipeline (wrap main with bench::BenchHarness)")

    # -- driver --------------------------------------------------------

    def run(self) -> int:
        roots = [self.repo / d for d in ("src", "bench", "examples", "tests")]
        files = sorted(
            f for root in roots if root.exists()
            for f in root.rglob("*") if f.suffix in (".hpp", ".cpp", ".h")
            # analyze_fixtures are intentionally-bad TUs for
            # scripts/mrhs_analyze.py --self-test; they violate rules on
            # purpose and are checked there, not here.
            and "tests/analyze_fixtures" not in f.as_posix())
        for path in files:
            text = path.read_text()
            raw_lines = text.splitlines()
            self.check_aligned_alloc(path, raw_lines)
            self.check_aligned_load_contract(path, text, raw_lines)
            self.check_no_float(path, raw_lines)
            self.check_fault_sites(path, raw_lines)
            self.check_assembly_via_engine(path, raw_lines)
            self.check_kernel_via_dispatch(path, raw_lines)
            self.check_bench_report(path, text)
        self.check_nodiscard_decls()

        if self.findings:
            for rel, line, rule, msg in self.findings:
                print(f"{rel}:{line}: [{rule}] {msg}")
            print(f"\nmrhs_lint: {len(self.findings)} finding(s)")
            return 1
        print("mrhs_lint: clean")
        return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repo", type=Path, default=Path(__file__).parent.parent,
                        help="repository root (default: script's parent dir)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule table and exit (same format "
                             "as mrhs_analyze.py --list-rules)")
    parser.add_argument("--doc", action="store_true",
                        help="print the full rule documentation and exit")
    args = parser.parse_args()
    if args.list_rules:
        print_rules()
        return 0
    if args.doc:
        print(__doc__)
        return 0
    return Linter(args.repo.resolve()).run()


if __name__ == "__main__":
    sys.exit(main())
