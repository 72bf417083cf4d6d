"""lock-scope: no query execution, inference, or blocking join/wait while
holding an engine mutex.

Clang's `-Wthread-safety` proves *which* lock protects *what*; it cannot
say that a critical section is too fat. Calling `Execute*`, running
inference, or blocking on `WaitIdle`/`ParallelFor`/a bare `Wait()`/
`thread::join` while holding a mutex either serialises the whole engine
behind one lock or deadlocks outright (the blocked-on workers may need the
same lock). Critical sections stay small: copy what you need, unlock, then
do the heavy work.

`CondVar::Wait(mu)` is NOT flagged — releasing the mutex while sleeping is
the whole point of a condition variable; the pass distinguishes it from a
rendezvous-style `Wait()` (a barrier or latch) by the mutex argument.
"""

from __future__ import annotations

import re

from ..core import Finding, Pass

# RAII lock acquisition: the annotated engine wrapper or a std scoped lock.
LOCK_RE = re.compile(
    r"\b(?:MutexLock|std::lock_guard\s*<[^>]*>|std::unique_lock\s*<[^>]*>|"
    r"std::scoped_lock(?:\s*<[^>]*>)?)\s+\w+\s*[({]")

# Calls that execute queries, run inference, or block on other workers.
BLOCKING_RE = re.compile(
    r"\b(?:"
    r"WaitIdle|ParallelFor|"                       # pool barriers
    r"ExecuteQuery|ExecutePlan|ExecutePipeline|"   # query execution
    r"trt_session_run|InferChunk|"                 # inference entry points
    r"RunInference|Forward"
    r")\s*\("
    r"|\.\s*Execute\s*\(|->\s*Execute\s*\("
    r"|\.\s*join\s*\(\s*\)"                        # thread join
    r"|\.\s*Wait\s*\(\s*\)")                       # barrier/latch Wait (no mutex
                                                   # arg, unlike CondVar::Wait(mu))


class LockScopePass(Pass):
    name = "lock-scope"
    roots = ("src",)

    def check_file(self, sf, ctx):
        findings = []
        depth = 0
        lock_depths = []  # brace depth at which each held lock was declared
        for lineno, line in sf.iter_code():
            # Process the line segment-wise so a lock declared after a call
            # on the same line does not retroactively flag it.
            i = 0
            while i <= len(line):
                brace = _next_brace(line, i)
                segment = line[i:brace] if brace >= 0 else line[i:]
                if lock_depths and BLOCKING_RE.search(segment):
                    call = BLOCKING_RE.search(segment).group(0).strip("(. ->")
                    findings.append(
                        Finding(sf.rel, lineno, self.name,
                                f"blocking/executing call `{call}` while "
                                "holding a mutex (acquired at depth "
                                f"{lock_depths[-1]}); shrink the critical "
                                "section"))
                if LOCK_RE.search(segment):
                    lock_depths.append(depth)
                if brace < 0:
                    break
                if line[brace] == "{":
                    depth += 1
                else:
                    depth -= 1
                    # A lock declared at depth d dies when depth drops below
                    # d (closing an inner block back to d keeps it held).
                    while lock_depths and lock_depths[-1] > depth:
                        lock_depths.pop()
                i = brace + 1
        return findings


def _next_brace(line: str, start: int) -> int:
    for i in range(start, len(line)):
        if line[i] in "{}":
            return i
    return -1


PASS = LockScopePass
