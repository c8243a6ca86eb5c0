#!/usr/bin/env python3
"""Run tier-1 against each one-line mutant of src/provsim and report which
mutants it kills.

Copies the source tree (without .git and caches) to a temporary directory,
checks that tier-1 passes there unmutated, then for each mutant in MUTANTS
rewrites one line, runs tier-1 with ``-x`` and puts the line back. Each run
has two passes: first the explicit inputs only (``--hypothesis-profile
explicit``: plain tests and ``@example``s, no generated draws), then, only if
that pass survives, the full tier-1. So each mutant prints one of
``killed by <test> (explicit)``, ``killed only by generated draws: <test>``
or ``SURVIVED``. The unmutated copy must pass both passes. Standard library
only; it is not part of tier-1 and takes up to two tier-1 runs per mutant.

Run from anywhere:  python3 scripts/mutants.py [mutant name ...]
Exit status: 0 when every mutant run is killed, 1 when some survive, 2 when
a patch no longer applies or the unmutated copy fails.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (name, file below src/provsim, source text, mutated text). The source text
# must occur exactly once in the file and lie within one line; the mutated text
# may span several.
MUTANTS = [
    ("flb-release-at-V", "policies.py",
     "if queued < params.V * owned:", "if queued <= params.V * owned:"),
    ("fb-requeue-id-descending", "policies.py",
     "key=lambda j: (j.submit_time, j.id)", "key=lambda j: (j.submit_time, -j.id)"),
    ("scale-round-half-down", "trace.py",
     "math.floor(v * target_peak / peak + 0.5)",
     "math.ceil(v * target_peak / peak - 0.5)"),
    ("log-state-fields-swapped", "simkernel.py",
     '"pbj_pool":%d,"ws_pool":%d', '"ws_pool":%d,"pbj_pool":%d'),
    ("log-adjustment-delta-negated", "simkernel.py",
     "% (actor.encode(), delta)", "% (actor.encode(), -delta)"),
    ("log-started-dropped", "simkernel.py",
     """line += b',"started":[%s]' % b",".join([b"%d" % job.id for job in started])""", "pass"),
    ("log-last-partial-block-dropped", "simkernel.py",
     "while block := list(itertools.islice(lines, _BLOCK)):",
     "while len(block := list(itertools.islice(lines, _BLOCK))) == _BLOCK:"),
    ("log-full-block-written-twice", "simkernel.py",
     'stream.write(b"".join(block))',
     'stream.write(b"".join(block * (1 + (len(block) == _BLOCK))))'),
    ("log-block-halved", "simkernel.py", "_BLOCK = 256", "_BLOCK = 128"),
    ("kernel-stale-completion-kept", "simkernel.py",
     "if running is None or running[2] != attempt:", "if running is None or False:"),
    ("kernel-adjustments-from-after-handling", "simkernel.py",
     "first, end = end, len(adjustments)", "first = end = len(adjustments)"),
    ("kernel-adjustment-carry-off-by-one", "simkernel.py",
     "first, end = end, len(adjustments)", "first, end = end - 1, len(adjustments)"),
    ("adjust-kept-when-not-recording", "state.py", "if self.recording:", "if True:"),
    ("adjust-not-counted", "state.py", "self.adjustment_count += 1", "pass"),
    ("adjust-zero-delta-accepted", "state.py", "if delta == 0:", "if False:"),
    ("snapshot-built-when-not-recording", "state.py",
     "if not self.recording:", "if False:"),
    ("state-not-recording-by-default", "state.py",
     "self.recording = True", "self.recording = False"),
    ("kernel-same-time-level-committed", "simkernel.py",
     "if time != since:", "if True:"),
    ("kernel-arrival-before-same-time-event", "simkernel.py",
     "if heap[0][0] <= arrival[1]:", "if heap[0][0] < arrival[1]:"),
    ("kernel-unsorted-trace-kept", "simkernel.py", "jobs = sorted(jobs, key=_SUBMIT)", "pass"),
    ("kernel-arrival-at-window-end", "simkernel.py",
     "bisect_left(jobs, duration, key=_SUBMIT)", "bisect_left(jobs, duration + 1, key=_SUBMIT)"),
    ("kernel-constant-level-for-every-regime", "simkernel.py",
     "varying = regime.config_size is None", "varying = False"),
    ("kernel-start-a-second-late", "simkernel.py",
     "heappush(heap, (time + runtime, KIND_JOB_COMPLETION, next(seq), (job, attempt)))",
     "heappush(heap, (time + 1 + runtime, KIND_JOB_COMPLETION, next(seq), (job, attempt)))"),
    ("kernel-restart-attempt-not-kept", "simkernel.py",
     "attempt = attempts.pop(job_id, 0) + 1", "attempt = 1"),
    ("kernel-start-allocation-not-raised", "simkernel.py", "state.running_alloc += size", "pass"),
    ("ec2rs-lease-tick-at-completion", "policies.py",
     "push(release, KIND_LEASE_TICK, (job.id, job.size))",
     "push(state.clock + job.runtime, KIND_LEASE_TICK, (job.id, job.size))"),
    ("admit-bypasses-traced-first-fit", "policies.py",
     "first_fit_schedule(state.queue, state.pbj_owned - state.running_alloc)",
     "state.queue.first_fit(state.pbj_owned - state.running_alloc)"),
    ("ec2rs-empty-queue-return-inverted", "policies.py",
     "if not state.queue.length:", "if state.queue.length:"),
    ("ec2rs-empty-queue-guard-dropped", "policies.py",
     "if not state.queue.length:", "if False:"),
    ("kernel-collector-left-paused", "simkernel.py", "gc.enable()", "pass"),
    ("kernel-collector-not-paused", "simkernel.py", "gc.disable()", "pass"),
    ("cli-collector-resumed-before-reports", "cli.py", "with collector_paused():", "if True:"),
    ("cli-records-held-when-collector-resumes", "cli.py", "del result", "pass"),
    ("sweep-walk-not-in-value-order", "cli.py",
     "for point in distinct:", "for point in reversed(distinct):"),
    ("sweep-shares-in-blocks", "cli.py",
     "distinct[k::workers]", "distinct[k * len(distinct) // workers:(k + 1) * len(distinct) // workers]"),
    ("sweep-share-runs-past-failure", "cli.py",
     "return  # at the first failure", "continue  # at the first failure"),
    ("sweep-children-unreaped-on-raise", "cli.py",
     "    finally:  # also when this process's share raises",
     "    except BaseException:\n        raise\n    else:"),
    ("sweep-child-returns", "cli.py", "os._exit(0)", "pass"),
    ("sweep-forks-without-os-fork", "cli.py", 'if hasattr(os, "fork") else 1', "if True else 1"),
    ("sweep-dead-worker-unnamed", "cli.py", "failure if ended else", "failure if True else"),
    ("cli-pool-imported-by-every-command", "cli.py",
     "import argparse", "import argparse, concurrent.futures"),
    ("scale-identity-always", "trace.py",
     "if list(scaled) == list(scaled.values()):", "if True:"),
    ("scale-identity-never", "trace.py",
     "if list(scaled) == list(scaled.values()):", "if False:"),
    ("window-end-inclusive", "trace.py",
     "default=0) >= end", "default=0) > end"),
    ("window-negative-submit-kept", "trace.py",
     "min(map(_SUBMIT, kept), default=0) < 0", "min(map(_SUBMIT, kept), default=0) < -1"),
    ("demand-fast-path-equal-time", "trace.py",
     "if not (last < t < INT_LIMIT", "if not (last <= t < INT_LIMIT"),
    ("demand-fast-path-negative-demand", "trace.py",
     "and 0 <= d < INT_LIMIT", "and -1 <= d < INT_LIMIT"),
    ("demand-header-after-a-header", "trace.py",
     "if last < 0 and not header:", "if last < 0:"),
    ("demand-header-not-noted", "trace.py", "header = True", "pass"),
    ("demand-checks-skip-the-limit", "trace.py", "if max(t, d) >= INT_LIMIT:", "if False:"),
    ("demand-checks-equal-time", "trace.py", "if t <= last:", "if t < last:"),
    ("queue-lone-kept-on-requeue", "state.py", "if self._lone is not None:", "if False:"),
    ("queue-lone-kept-on-append", "state.py", "self._settle()  # ahead of this job", "pass"),
    ("queue-biggest-ignores-lone", "state.py", "else self.demand  # the lone", "else 0  # the lone"),
    ("queue-lone-started-when-too-big", "state.py",
     "if job is None or job.size > idle:", "if job is None:"),
    ("swf-comment-whole-field", "trace.py",
     'if not fields or fields[0][0] == ";":', 'if not fields or fields[0] == ";":'),
    ("swf-block-nul-in-line-kept", "trace.py",
     'joined.count("\\x00") != n - 1 or len(tokens)', 'False or len(tokens)'),
    ("swf-block-cadence-unchecked", "trace.py",
     'or tokens[18::19].count("\\x00") != n - 1):', "or False):"),
    ("swf-block-bound-unchecked", "trace.py",
     "if not all(-2**53 < min(column) and max(column) < 2**53 for column in columns):",
     "if False:"),
    ("swf-block-no-requested-fallback", "trace.py",
     "sizes = allocs if min(allocs) > 0 else", "sizes = allocs if True else"),
    ("swf-block-none-dropped", "trace.py",
     "if min(runtimes) <= 0 or min(sizes) <= 0 or min(submits) < 0:", "if False:"),
    ("swf-block-earlier-ids-ignored", "trace.py",
     "or not seen_ids.isdisjoint(kept)", "or False"),
    ("agreement-fb-unequal-bounds-accepted", "agreement.py",
     "if a.upper_bound != a.lower_bound:", "if False:"),
    ("agreement-flb-nub-defined-upper-accepted", "agreement.py",
     "elif a.upper_bound is not None:  # FLB_NUB", "elif False:"),
    ("agreement-negative-lower-accepted", "agreement.py", "if a.lower_bound < 0:", "if False:"),
    ("agreement-optional-element-required", "agreement.py",
     '"allows_cross_provider": ("cross_provider_coordinated_RE", False, _flag),',
     '"allows_cross_provider": ("cross_provider_coordinated_RE", True, _flag),'),
    ("scenario-required-key-optional", "scenario.py",
     '"window.duration": ("window_duration", _at_least(1), REQUIRED, "--duration"),',
     '"window.duration": ("window_duration", _at_least(1), 0, "--duration"),'),
    ("scenario-default-changed", "scenario.py",
     '"cpus_per_node": ("cpus_per_node", _at_least(1), 1, "--cpus-per-node"),',
     '"cpus_per_node": ("cpus_per_node", _at_least(1), 2, "--cpus-per-node"),'),
    ("scenario-start-offset-range-unchecked", "scenario.py",
     '"window.start_offset": ("window_start", _at_least(0), 0, "--window-start"),',
     '"window.start_offset": ("window_start", whole, 0, "--window-start"),'),
    ("scenario-unknown-nested-key-accepted", "scenario.py",
     "_known(obj, rows, prefix)", "_known(obj, rows, prefix) if not outer else None"),
    ("cli-target-peaks-flag-swapped", "cli.py",
     'doc["target_peaks"] = {"pbj": pbj, "ws": ws}', 'doc["target_peaks"] = {"pbj": ws, "ws": pbj}'),
    ("kernel-timer-bound-dropped", "simkernel.py",
     "if rules.timer_kinds and firings > MAX_TIMER_FIRINGS:", "if False:"),
    ("kernel-timer-bound-off-by-one", "simkernel.py",
     "if rules.timer_kinds and firings > MAX_TIMER_FIRINGS:",
     "if rules.timer_kinds and firings >= MAX_TIMER_FIRINGS:"),
    ("agreement-type-wins-over-workload-type", "agreement.py",
     'obj.setdefault("workload_type", obj["type"])', 'obj["workload_type"] = obj["type"]'),
    ("error-infeasible-exits-invalid", "errors.py",
     '"infeasible scenario", EXIT_INFEASIBLE', '"infeasible scenario", EXIT_INVALID'),
    ("error-trace-category-as-input", "errors.py",
     '"trace error", EXIT_INVALID', '"invalid input", EXIT_INVALID'),
    ("trace-unreadable-as-scenario-error", "scenario.py",
     'read_input(pbj_path, "batch-job trace", TraceParseError)',
     'read_input(pbj_path, "batch-job trace", ScenarioError)'),
    ("cli-exit-status-fixed", "cli.py", "return exc.exit_code", "return 1"),
]

IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                 "*.egg-info", ".work", ".traces")


# Tier-1's two passes: the explicit inputs only (plain tests and @examples), then all of it.
PASSES = {"explicit": ["--hypothesis-profile", "explicit"], "full": []}


def tier1(tree: Path, *options: str) -> tuple[int, str]:
    """Tier-1 in ``tree``, stopping at the first failure: (exit status, the
    first failure's summary line, or "")."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", *options],
        cwd=tree, env=env, capture_output=True, text=True)
    failures = [line for line in done.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
    return done.returncode, failures[0] if failures else ""


def judge(tree: Path) -> tuple[str | None, int, str]:
    """The passes of tier-1 in ``tree`` up to the first that fails: (its name,
    exit status and first failure's summary line), or (None, 0, "")."""
    for name, options in PASSES.items():
        status, failure = tier1(tree, *options)
        if status != 0:
            return name, status, failure
    return None, 0, ""


def main(argv: list[str]) -> int:
    unknown = set(argv) - {name for name, *_ in MUTANTS}
    if unknown:
        print(f"mutants: unknown mutant {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not argv or m[0] in argv]
    with tempfile.TemporaryDirectory(prefix="provsim-mutants-") as scratch:
        tree = Path(scratch) / "tree"
        shutil.copytree(ROOT, tree, ignore=IGNORED)
        failed, status, failure = judge(tree)
        if failed:
            print(f"mutants: tier-1's {failed} pass fails without a mutant (exit {status}) "
                  f"{failure}")
            return 2
        survivors = drawn = 0
        for name, file, source, mutated in chosen:
            path = tree / "src" / "provsim" / file
            original = path.read_text()
            if original.count(source) != 1 or "\n" in source:
                print(f"{name}: patch does not apply to {file}")
                return 2
            path.write_text(original.replace(source, mutated))
            try:
                failed, status, failure = judge(tree)
            finally:
                path.write_text(original)
            killer = failure or f"exit {status}"
            if failed is None:
                survivors += 1
                print(f"{name}: SURVIVED ({file}: {source!r} -> {mutated!r})")
            elif failed == "explicit":
                print(f"{name}: killed by {killer} (explicit)")
            else:
                drawn += 1
                print(f"{name}: killed only by generated draws: {killer}")
    print(f"{len(chosen) - survivors} of {len(chosen)} mutants killed, "
          f"{drawn} of them only by generated draws")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
