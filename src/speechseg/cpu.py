"""How speechseg spreads its work over the CPUs.

compute_mfcc and the split tapes of a long small-net stream each cut
their work into one job per CPU the process may use (count), and run
starts the jobs, which overlap because NumPy's FFT, elementwise and BLAS
calls release the GIL. Two rules make that pay:

* Every matrix product stays at or under SERIAL_GEMM_MNK, the M*N*K up
  to which OpenBLAS runs a gemm on the calling thread. A larger product
  wakes OpenBLAS's helper threads, which contend with the jobs and keep
  spinning after it: beside a 0.37 s MFCC call of a 20-minute recording
  a helper burned 0.36 s of CPU, and two MFCC jobs on whole 240-row
  products took 0.46-0.53 s against 0.37-0.39 s on one (2 cores). So a
  job slices its products (slice_limit, spans, sliced_matmul), and no
  slice has a single row, which BLAS would run as a gemv.
* The calling thread makes every buffer before run starts: glibc gives
  each thread a malloc arena of its own, which keeps its pages. Buffers
  made in the jobs raised peak RSS from 77.5 to 84.2 MB on three
  4 x 60 s segment passes (MFCC), and from 134.4 to 138.7-141.7 MB on
  the long-small benchmark (split tapes).

OpenBLAS picks its kernel by the product's shape (Goto and van de Geijn
2008, "Anatomy of high-performance matrix multiplication"), so a slice's
height decides a row's last bits. MFCC slices the same way on any CPU
count and keeps its bits (frontend). A split x-vector stream slices
products that one tape runs whole, so its float32 embeddings can differ
from one tape's by one ulp, and its .xvec can depend on the CPU count
(xvector). For a given CPU count every output is byte-identical from run
to run.
"""
from __future__ import annotations

import os
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# OpenBLAS runs a gemm whose M*N*K is at most SMP_THRESHOLD_MIN (65536)
# times GEMM_MULTITHREAD_THRESHOLD (4) on the calling thread alone
# (interface/gemm.c)
SERIAL_GEMM_MNK = 4 * 65536


def count() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def slice_limit(rest: int) -> int:
    """The most rows (or columns) a slice may take, with one more, under
    SERIAL_GEMM_MNK when the product's other two sizes multiply to rest;
    below 1 if no slice of two fits."""
    return SERIAL_GEMM_MNK // rest - 1


def spans(n: int, step: int) -> list[tuple[int, int]]:
    """[start, stop) spans of step rows from row 0 that cover range(n); a
    last span of one row joins the span before it, so no matrix product
    takes a single row (BLAS would take it as a gemv) unless n is 1."""
    cuts = [*range(0, n, step), n]
    if len(cuts) > 2 and n - cuts[-2] == 1:
        del cuts[-2]
    return list(zip(cuts, cuts[1:]))


def sliced_matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray,
                  rows: int) -> None:
    """out = a @ b as products over the spans(len(a), rows) row spans of
    a: the spans of exactly rows rows as one stacked matmul, which runs
    one BLAS product per span without a Python call each, then a last
    span of another length. a and out are C-contiguous row slices."""
    first, last = spans(len(a), rows)[-1]
    cut = last if last - first == rows else first
    if cut:
        np.matmul(a[:cut].reshape(-1, rows, a.shape[1]), b,
                  out=out[:cut].reshape(-1, rows, out.shape[1]))
    if cut < len(a):
        np.matmul(a[cut:], b, out=out[cut:])


def run(jobs: list[Callable[[], object]]) -> None:
    """Call every job: the first on the calling thread, the rest on a
    per-call pool of one thread each, and a single job inline. Returns
    when all are done, raising the first error in job order."""
    first, *rest = jobs
    if not rest:
        first()
        return
    with ThreadPoolExecutor(len(rest)) as pool:
        futures = [pool.submit(job) for job in rest]
        first()
        for future in futures:
            future.result()
