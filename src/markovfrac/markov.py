"""The Markov fraction tree and its arithmetic.

The tree is generated from the seed pair (0/1, 1/2) by the mediant rule

    (p1/q1) * (p2/q2) = (p1*q1 + p2*q2) / (q1**2 + q2**2),

whose reduced numerator and denominator are (p1*q1 + p2*q2)/(p2*q1 - p1*q2)
and (q1**2 + q2**2)/(p2*q1 - p1*q2).  Denominators of the resulting
fractions are exactly the Markov numbers: the coordinates of solutions of
x**2 + y**2 + z**2 = 3*x*y*z.  This module also provides the Vieta
involution on Markov triples, the Fibonacci and Pell boundary branches,
the congruence p**2 + 1 == 0 (mod q) satisfied by every numerator, and the
two generalized equations with coefficient patterns (1,1,2,4) and (1,2,3,6).

Turn words follow the same convention as :mod:`markovfrac.farey`:
L moves toward smaller fractions, R toward larger ones.
"""

from __future__ import annotations

import os
import random
import re
import sys
from collections import Counter
from fractions import Fraction
from itertools import chain, compress, cycle
from math import gcd, isqrt
from typing import Callable, Iterable, Iterator, NoReturn, Sequence, TypeVar

from .exact import _Value, _check_value_bits, _coprime_fraction
from .farey import TurnWord, _spell, _turn_runs, check_word

__all__ = [
    "FractionTriple",
    "GeneralizedEquation",
    "MarkovFraction",
    "MarkovTriple",
    "RelationReport",
    "UnicityReport",
    "REDUCED_SEEDS",
    "SUPPORTED_EQUATIONS",
    "UNIT_SEEDS",
    "check_relations",
    "congruence_brute",
    "descend_value",
    "enumerate_tree",
    "fibonacci_branch",
    "generalized_enumerate",
    "mu",
    "pell_branch",
    "solve_congruence",
    "springborn_mediant",
    "tree_walk",
    "unicity_scan",
    "vieta_mutate",
]

#: Seeds of the reduced tree; every vertex lies strictly between them.
REDUCED_SEEDS = (Fraction(0), Fraction(1, 2))
#: Seeds of the [0, 1] variant used by the slope recursion.
UNIT_SEEDS = (Fraction(0), Fraction(1))

# Vertex budget for exhaustive scans: depth d emits 2**(d+1) - 1 vertices.
_MAX_SCAN_VERTICES = 1 << 20


def _check_scan_depth(depth: int, root_branches: int = 2) -> None:
    """Reject a negative depth, or one whose scan would pass the vertex budget.

    Below the root, which has root_branches children, every scanned vertex
    has at most two, so depth d visits at most 1 + root_branches*(2**d - 1)
    vertices: 2**(d+1) - 1 for the fraction trees.  A depth past the
    budget's bit length is rejected before any power of two is formed.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if (depth >= _MAX_SCAN_VERTICES.bit_length()
            or 1 + root_branches * ((1 << depth) - 1) > _MAX_SCAN_VERTICES):
        raise ValueError(f"depth {depth} exceeds the {_MAX_SCAN_VERTICES} vertex budget")


def _mediant_terms(p1: int, q1: int, p2: int, q2: int) -> tuple[int, int]:
    """Unreduced terms (p1*q1 + p2*q2, q1**2 + q2**2) of the mediant of p1/q1 and p2/q2."""
    return p1 * q1 + p2 * q2, q1 * q1 + q2 * q2


def springborn_mediant(f1: Fraction, f2: Fraction) -> Fraction:
    """Mediant variant generating the Markov fraction tree; requires f1 < f2."""
    if not f1 < f2:
        raise ValueError(f"arguments must be ordered: expected {f1} < {f2}")
    return Fraction(*_mediant_terms(f1.numerator, f1.denominator, f2.numerator, f2.denominator))


class MarkovTriple(_Value):
    """Ordered positive solution of x**2 + y**2 + z**2 = 3*x*y*z."""

    __slots__ = ("x", "y", "z")

    def __init__(self, x: int, y: int, z: int) -> None:
        if min(x, y, z) < 1:
            raise ValueError("Markov triples are positive")
        if x * x + y * y + z * z != 3 * x * y * z:
            raise ValueError(f"({x}, {y}, {z}) does not solve the Markov equation")
        super().__init__(x, y, z)

    def as_tuple(self) -> tuple[int, int, int]:
        return self._key(self)


def vieta_mutate(t: MarkovTriple, index: int) -> MarkovTriple:
    """Replace one coordinate by the second root of the Markov equation.

    For index i the new coordinate is 3 times the product of the other two
    minus the old one; applying the same mutation twice returns t.
    """
    x, y, z = t.as_tuple()
    if index == 1:
        return MarkovTriple(3 * y * z - x, y, z)
    if index == 2:
        return MarkovTriple(x, 3 * x * z - y, z)
    if index == 3:
        return MarkovTriple(x, y, 3 * x * y - z)
    raise ValueError(f"index must be 1, 2 or 3, not {index}")


class FractionTriple(_Value):
    """A tree vertex f3 together with its neighbours f1 < f3 < f2.

    No invariants are enforced at construction so that broken triples can
    be fed to :func:`check_relations` as negative controls; triples emitted
    by :func:`enumerate_tree` satisfy every relation exactly.
    """

    __slots__ = ("f1", "f2", "f3")


class RelationReport(_Value):
    """Truth of each exact relation tying a vertex to its neighbours.

    With pi/qi the numerators and denominators of (f1, f2, f3):

    * ``det_f2_f3_is_q1``:  p2*q3 - p3*q2 == q1
    * ``det_f3_f1_is_q2``:  p3*q1 - p1*q3 == q2
    * ``det_f2_f1_is_flip``: p2*q1 - p1*q2 == (q1**2 + q2**2)/q3 == 3*q1*q2 - q3
      (including integrality of the quotient)
    * ``left_child_consistent``:  f1 < f3, and (p1*q1 + p3*q3)/q2 over
      (q1**2 + q3**2)/q2 is the integer pair (3*q1*p3 - p2, 3*q1*q3 - q2),
      the Vieta child that is the reduced mediant of (f1, f3)
    * ``right_child_consistent``: f3 < f2, and (p2*q2 + p3*q3)/q1 over
      (q2**2 + q3**2)/q1 is the integer pair (3*q2*p3 - p1, 3*q2*q3 - q1),
      the Vieta child that is the reduced mediant of (f3, f2)
    """

    __slots__ = ("det_f2_f3_is_q1", "det_f3_f1_is_q2", "det_f2_f1_is_flip",
                 "left_child_consistent", "right_child_consistent")

    @property
    def all_hold(self) -> bool:
        return all(self._key(self))

    def as_dict(self) -> dict[str, bool]:
        return dict(zip(self.__slots__, self._key(self)))


def _child_consistent(ordered: bool, num: int, den: int, q: int,
                      child_num: int, child_den: int) -> bool:
    # (num, den) are the unreduced mediant terms of a pair, which has a mediant
    # only when ordered.  Its reduced mediant is the Vieta child
    # child_num/child_den, so dividing both terms by q must give the child's
    # two terms: two products, no remainder.
    return ordered and num == q * child_num and den == q * child_den


def check_relations(t: FractionTriple) -> RelationReport:
    """Exact truth report for the neighbour relations of a candidate triple.

    Every relation is decided on integers: no Fraction is built and no gcd
    is taken.  The two determinants are also the orders f3 > f1 and f2 > f3
    that the child mediants need.
    """
    return _relations(t.f1.numerator, t.f1.denominator, t.f2.numerator, t.f2.denominator,
                      t.f3.numerator, t.f3.denominator)


def _relations(p1: int, q1: int, p2: int, q2: int, p3: int, q3: int) -> RelationReport:
    """check_relations on the terms of f1 = p1/q1, f2 = p2/q2 and f3 = p3/q3."""
    d23, d31 = p2 * q3 - p3 * q2, p3 * q1 - p1 * q3
    qq12 = q1 * q1 + q2 * q2
    flip = (qq12 % q3 == 0
            and p2 * q1 - p1 * q2 == qq12 // q3 == 3 * q1 * q2 - q3)
    return RelationReport(
        d23 == q1,
        d31 == q2,
        flip,
        _child_consistent(d31 > 0, p1 * q1 + p3 * q3, q1 * q1 + q3 * q3, q2,
                          3 * q1 * p3 - p2, 3 * q1 * q3 - q2),
        _child_consistent(d23 > 0, p2 * q2 + p3 * q3, q2 * q2 + q3 * q3, q1,
                          3 * q2 * p3 - p1, 3 * q2 * q3 - q1),
    )


def enumerate_tree(
    depth: int,
    seeds: tuple[Fraction, Fraction] = REDUCED_SEEDS,
) -> Iterator[tuple[TurnWord, FractionTriple]]:
    """Depth-first tree vertices to the given depth, in word order: children L before R.

    Yields 2**(depth + 1) - 1 pairs (word, triple); the root has word ''.
    Each vertex is the gcd-reduced springborn_mediant of its neighbours, as
    the tree is defined, so this is the reference for the Vieta steps of
    tree_walk, which yields its vertices in the same order.  At most
    depth + 1 pending pairs are held at a time.
    """
    _check_scan_depth(depth)

    def walk() -> Iterator[tuple[TurnWord, FractionTriple]]:
        stack = [("", seeds[0], seeds[1])]
        while stack:
            word, f1, f2 = stack.pop()
            f3 = springborn_mediant(f1, f2)
            yield word, FractionTriple(f1, f2, f3)
            if len(word) < depth:
                stack.append((word + "R", f3, f2))
                stack.append((word + "L", f1, f3))

    return walk()


#: An integer vertex (p1, q1, p2, q2, p3, q3): the fraction p3/q3 with its
#: neighbours p1/q1 < p3/q3 < p2/q2, all in lowest terms.
Vertex = tuple[int, int, int, int, int, int]
#: Farey parents (a1, b1, a2, b2) of the Farey-tree vertex (a1 + a2)/(b1 + b2).
FareyPair = tuple[int, int, int, int]
_Node = TypeVar("_Node")  # a Vertex, or the Markov triple of _rank_walk
_T = TypeVar("_T")


def _root(seeds: tuple[Fraction, Fraction]) -> Vertex:
    """Integer root vertex of the tree on the seeds.

    The Vieta step of :func:`_vieta_child` yields the reduced mediant below
    any vertex satisfying the two determinant relations and the flip
    relation of :func:`check_relations`.  The step carries the three
    relations to both children, so checking them at the root suffices.
    """
    f1, f2 = seeds
    f3 = springborn_mediant(f1, f2)
    report = check_relations(FractionTriple(f1, f2, f3))
    if not (report.det_f2_f3_is_q1 and report.det_f3_f1_is_q2 and report.det_f2_f1_is_flip):
        raise ValueError(f"seeds {f1} and {f2} do not span a Markov fraction tree")
    return (f1.numerator, f1.denominator, f2.numerator, f2.denominator,
            f3.numerator, f3.denominator)


def _vieta_child(v: Vertex, letter: str) -> Vertex:
    """Child of a vertex by the Vieta step: no division and no gcd.

    The child keeps one neighbour and the vertex itself; its value is
    (3*q_kept*p3 - p_dropped)/(3*q_kept*q3 - q_dropped), already in lowest
    terms, and its denominator is the Vieta flip of the dropped one.
    """
    p1, q1, p2, q2, p3, q3 = v
    if letter == "L":
        k = 3 * q1
        return (p1, q1, p3, q3, k * p3 - p2, k * q3 - q2)
    k = 3 * q2
    return (p3, q3, p2, q2, k * p3 - p1, k * q3 - q1)


_REDUCED_ROOT, _UNIT_ROOT = _root(REDUCED_SEEDS), _root(UNIT_SEEDS)


def _root_of(seeds: tuple[Fraction, Fraction]) -> Vertex:
    """_root(seeds), kept for the two module seed pairs and found by identity.

    Any other pair, equal to one of them or not, is checked by _root: a
    lookup by value would hash both seeds on every call.
    """
    if seeds is REDUCED_SEEDS:
        return _REDUCED_ROOT
    if seeds is UNIT_SEEDS:
        return _UNIT_ROOT
    return _root(seeds)


def _walk(start: tuple[_Node, FareyPair, int], children: Callable[[_Node], tuple[_Node, _Node]],
          depth: int | None, cut: Callable[[tuple[_Node, FareyPair, int]], bool] | None,
          ) -> Iterator[tuple[_Node, FareyPair, int]]:
    """The loop of the integer walks: (node, farey_pair, level) depth-first from start.

    start is the item of the subtree's root, (root, (0, 1, 1, 1), 0) for
    the whole tree.  children(node) gives its (L, R) children, walked L
    first; farey_pair is the Farey parents at the same word.  cut(item)
    skips the item with its subtree, and depth None walks until it ends
    every branch.
    """
    stack = [start]
    pop, push = stack.pop, stack.append
    while stack:
        item = pop()
        if cut is not None and cut(item):
            continue
        yield item
        node, (a1, b1, a2, b2), level = item
        if depth is None or level < depth:
            left, right = children(node)
            a3, b3, level = a1 + a2, b1 + b2, level + 1
            push((right, (a3, b3, a2, b2), level))
            push((left, (a1, b1, a3, b3), level))


def tree_walk(
    depth: int | None,
    max_denominator: int | None = None,
    *,
    prune: Callable[[Vertex], bool] | None = None,
    seeds: tuple[Fraction, Fraction] = REDUCED_SEEDS,
) -> Iterator[tuple[Vertex, FareyPair, int]]:
    """Depth-first integer walk of the tree on the seeds, children L before R.

    Yields (vertex, farey_pair, level) for the vertices of
    ``enumerate_tree(depth, seeds)``, in the lexicographic order of their words:
    vertex is (p1, q1, p2, q2, p3, q3) and farey_pair the parents
    (a1, b1, a2, b2) of the Farey-tree vertex at the same word.  Children
    come from the Vieta step, so no vertex costs a division or a gcd.

    With max_denominator, a vertex above it is skipped with its subtree
    (denominators grow along every branch).  depth None walks until every
    branch is cut that way, and then needs max_denominator.  After that
    cut, prune(vertex) returning True skips the vertex with its subtree
    too.  Every vertex below (p1, q1, p2, q2, p3, q3) lies strictly
    between p1/q1 and p2/q2, so a predicate that cuts on those neighbours
    walks only the branches that reach a window: this is how
    ``analysis.fractions_strictly_inside`` scans an interval.  A walk
    with neither cut pays one None test per vertex.

    The seeds must span a Markov fraction tree, as for descend_value; the
    Farey pairs do not depend on them.
    """
    if depth is None:
        if max_denominator is None:
            raise ValueError("a walk without a depth needs max_denominator")
    else:
        _check_scan_depth(depth)

    def cut(item: tuple[Vertex, FareyPair, int]) -> bool:
        return ((max_denominator is not None and item[0][5] > max_denominator)
                or (prune is not None and prune(item[0])))

    return _walk((_root_of(seeds), (0, 1, 1, 1), 0),
                 lambda v: (_vieta_child(v, "L"), _vieta_child(v, "R")),
                 depth, None if max_denominator is None and prune is None else cut)


#: A rank-walk item ((q1, q2, q3), farey_pair, level): a vertex's denominator triple.
_RankItem = tuple[tuple[int, int, int], FareyPair, int]


def _flips(t: tuple[int, int, int]) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
    q1, q2, q3 = t
    return (q1, q3, 3 * q1 * q3 - q2), (q3, q2, 3 * q2 * q3 - q1)


#: The first item of the rank walk: the root's denominators (1, 2, 5).
_RANK_ROOT: _RankItem = (_REDUCED_ROOT[1::2], (0, 1, 1, 1), 0)


def _rank_walk(depth: int, prune: Callable[[_RankItem], bool] | None = None,
               start: _RankItem = _RANK_ROOT) -> Iterator[_RankItem]:
    """tree_walk(depth) on the denominators alone: the Markov numbers, not the fractions.

    Yields ((q1, q2, q3), farey_pair, level) for the vertices of the reduced
    tree, in the order of tree_walk(depth), with q1, q2 and q3 its v[1],
    v[3] and v[5].  A child keeps one neighbour and takes the Vieta flip
    3*q_kept*q3 - q_dropped of the other, so no numerator is carried: one
    product per child.  prune(item) returning True skips the item with its
    subtree; every Farey vertex below the pair (a1, b1, a2, b2) lies
    strictly between a1/b1 and a2/b2.  With start, an item of the walk,
    only its subtree is walked, down to the same depth.
    """
    _check_scan_depth(depth)
    return _walk(start, _flips, depth, prune)


# The rank walk is split at this level, into 2**5 = 32 subtrees: tasks
# enough for the pull of _share to even out their unequal costs (a pruned
# saltus walk keeps some of them whole and others not at all), and parts
# few enough to pickle and merge cheaply.  On two CPUs levels 3 to 7 took
# the same time within the noise: mcshane_partial_sums(14, 12) 95-101 ms,
# saltus_samples on 230 points at depth 12 34-40 ms and saltus_mu(188/229)
# at depth 12 24-27 ms, against 143, 44 and 31 ms in one walk (medians of
# 6 rounds of 9 calls, Python 3.11 on a shared 2-core x86-64 host).
_SPLIT_LEVEL = 5
# Fewest vertices that the surviving subtrees hold, uncut, for the split
# walk to be shared: the break-even of forking a child, pickling its parts
# and merging them.  mcshane_partial_sums(depth, 12) took, shared on two
# CPUs against one walk, 7.5 against 4-6 ms at depth 9 (1,023 vertices),
# 11.5 against 10.3-12.8 ms at depth 10 (2,047) and 17-18 against
# 21-24 ms at depth 11 (4,095); medians of 31 calls, three rounds, Python
# 3.11 on a shared 2-core x86-64 host.
_SHARE_MIN_VERTICES = 1 << 11


def _shared_rank_walk(depth: int, prune: Callable[[_RankItem], bool] | None,
                      part: Callable[[Iterable[_RankItem]], _T]) -> list[_T]:
    """part(items) over pieces that cover _rank_walk(depth, prune) once each, shared out.

    The walk above _SPLIT_LEVEL, with prune, is one piece and goes to part
    in this process.  Each subtree at that level that prune keeps is one
    more, and _share runs them when at least two are kept and, uncut, they
    hold _SHARE_MIN_VERTICES or more vertices.  Otherwise the pieces are
    chained into one walk for one part, as a serial walk would be.  A
    piece comes in walk order, but the pieces do not, so the caller's
    merge of the parts must not depend on the order of the vertices.
    """
    _check_scan_depth(depth)
    starts = []

    def cut(item: _RankItem) -> bool:
        if prune is not None and prune(item):
            return True
        if item[2] == _SPLIT_LEVEL:
            starts.append(item)
            return True
        return False

    upper = list(_walk(_RANK_ROOT, _flips, depth, cut))
    if len(starts) > 1 and len(starts) * ((2 << (depth - _SPLIT_LEVEL)) - 1) >= _SHARE_MIN_VERTICES:
        return [part(upper), *_share([lambda start=start: part(_rank_walk(depth, prune, start))
                                      for start in starts])]
    return [part(chain(upper, *(_rank_walk(depth, prune, start) for start in starts)))]


# -- the task pool ------------------------------------------------------------

# True inside a share: in the process that called _share, until it returns,
# and in its children, which it keeps from sharing again.
_sharing = False


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _threads_alive() -> bool:
    """Whether a second thread runs: a child would hold locks that no thread of its own frees."""
    threading = sys.modules.get("threading")
    return threading is not None and threading.active_count() > 1


def _pull(queue: int, tasks: Sequence[Callable[[], _T]]) -> list[tuple[int, _T]]:
    """Run tasks by the indices read from the pipe queue, one byte each, until it is empty.

    A one-byte read takes a byte no other reader of the pipe gets, so the
    processes that share it run each task once.
    """
    done = []
    while index := os.read(queue, 1):
        done.append((index[0], tasks[index[0]]()))
    return done


def _serve(queue: int, out: int, tasks: Sequence[Callable[[], object]]) -> NoReturn:
    """A forked child: run the tasks pulled from queue, write the outcome to out, exit.

    The outcome is the pickled list of (index, result) pairs, or the
    exception a task raised.  The child ends in os._exit whatever happens,
    so it never returns into the caller's frames nor flushes its buffers;
    its status is 1 when it could not write the outcome.
    """
    status = 1
    try:
        import pickle

        try:
            outcome: object = _pull(queue, tasks)
        except BaseException as exc:  # reported to _share, which raises it
            outcome = exc
        data = memoryview(pickle.dumps(outcome))
        while data:
            data = data[os.write(out, data):]
        status = 0
    finally:
        os._exit(status)


def _share(tasks: Sequence[Callable[[], _T]]) -> list[_T]:
    """[task() for task in tasks], run by this process and one forked child per spare CPU.

    Every process takes the next task index from one pipe until none is
    left, so the split follows the CPU count and the task costs as they
    fall, and the results come back in task order.  Everything runs here,
    one task after another, with fewer than two tasks or usable CPUs, off
    Linux (a fork without exec is unsafe on macOS, and Windows has no
    fork), inside a share (a task's own call, or a child's), and while a
    second thread is alive.  A task's exception, in whichever process, is
    raised here, and a child that ends without an outcome raises
    RuntimeError.  Each child is read to its end and reaped before this
    returns; on any exception here, an interrupt too, the children still
    alive are killed and reaped before it propagates.  An index is one
    byte, so a share takes at most 256 tasks.
    """
    global _sharing
    if len(tasks) > 256:
        raise ValueError("a share takes at most 256 tasks")
    forkable = not _sharing and sys.platform == "linux" and not _threads_alive()
    children = min(_usable_cpus(), len(tasks)) - 1 if forkable else 0
    if children < 1:
        return [task() for task in tasks]
    import pickle
    import signal

    queue, feed = os.pipe()
    os.write(feed, bytes(range(len(tasks))))
    os.close(feed)
    outs: list[int] = []  # read ends of the children's outcome pipes
    alive: list[int] = []  # children not yet reaped
    _sharing = True
    try:
        for _ in range(children):
            out, into = os.pipe()
            outs.append(out)
            try:
                pid = os.fork()
                if pid == 0:
                    _serve(queue, into, tasks)
                alive.append(pid)
            finally:
                os.close(into)
        done = dict(_pull(queue, tasks))
        for pid, out in list(zip(alive, outs)):
            with open(out, "rb", closefd=False) as pipe:
                data = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            alive.remove(pid)
            if status or not data:
                raise RuntimeError(f"a worker exited with status {status}")
            outcome = pickle.loads(data)
            if isinstance(outcome, BaseException):
                raise outcome
            done.update(outcome)
    except BaseException:
        for pid in alive:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        raise
    finally:
        _sharing = False
        for fd in (queue, *outs):
            os.close(fd)
    return [done[index] for index in range(len(tasks))]


_RUN = re.compile(r"L+|R+")


def _lucas_pair(k: int, r: int) -> tuple[int, int]:
    """(u(r+1), u(r)) for u(0) = 0, u(1) = 1, u(j+1) = k*u(j) - u(j-1).

    These fill the matrix power [[k, -1], [1, 0]]**r =
    [[u(r+1), -u(r)], [u(r), -u(r-1)]], which is found by doubling over
    the bits of r: u(2j) = u(j)*(2*u(j+1) - k*u(j)) and
    u(2j+1) = u(j+1)**2 - u(j)**2.
    """
    u1, u0 = 1, 0
    for bit in bin(r)[2:]:
        u1, u0 = u1 * u1 - u0 * u0, u0 * (2 * u1 - k * u0)
        if bit == "1":
            u1, u0 = k * u1 - u0, u1
    return u1, u0


def _run_step(v: Vertex, letter: str, r: int) -> Vertex:
    """The vertex r >= 1 letters down a run of equal letters from v.

    Along a run the kept neighbour a/c stays fixed, so the Vieta step
    x(j+1) = k*x(j) - x(j-1) with k = 3*c is linear in the numerators and
    in the denominators: a run of length r is one power of the matrix
    [[k, -1], [1, 0]] (see _lucas_pair), O(log r) multiplications, and
    run steps compose, step(step(v, r), s) = step(v, r + s).  A run of one
    letter is the Vieta step itself, _vieta_child, which the power equals
    at r = 1 with less work.  Nothing is checked: _descend holds the
    value budget.
    """
    if r == 1:
        return _vieta_child(v, letter)
    p1, q1, p2, q2, p3, q3 = v
    k = 3 * (q1 if letter == "L" else q2)
    u1, u0 = _lucas_pair(k, r)
    um = k * u0 - u1
    # M**r takes (vertex, dropped neighbour) to (new vertex, its neighbour on that side).
    if letter == "L":
        return (p1, q1, u0 * p3 - um * p2, u0 * q3 - um * q2,
                u1 * p3 - u0 * p2, u1 * q3 - u0 * q2)
    return (u0 * p3 - um * p1, u0 * q3 - um * q1, p2, q2,
            u1 * p3 - u0 * p1, u1 * q3 - u0 * q1)


def _word_runs(word: TurnWord) -> Iterator[tuple[str, int]]:
    """(letter, length) for each run of equal letters of a well-formed word."""
    return ((run[0], len(run)) for run in _RUN.findall(word))


def _descend(runs: Iterable[tuple[str, int]], v: Vertex, what: str) -> Vertex:
    """The vertex below v down the runs (letter, length); refusals name ``what``.

    A run of length 0 is no step.  The denominator is held to the value
    budget: each letter of a run multiplies it at least by k - 1 >= 2, with
    k = 3 * the kept neighbour's denominator, which bounds the run's growth
    from below before its power is taken, and the vertex reached is checked
    once at the end, an empty descent too.  v must be a _root vertex or a
    vertex below one: _root checks the relations that the Vieta step
    carries to every vertex below, and those make each vertex reduced with
    a positive denominator, so its value is built without a gcd.
    """
    for letter, r in runs:
        if r:
            k = 3 * (v[1] if letter == "L" else v[3])
            _check_value_bits(v[5].bit_length() + r * ((k - 1).bit_length() - 1), what)
            v = _run_step(v, letter, r)
    _check_value_bits(v[5].bit_length(), what)
    return v


def descend_value(word: TurnWord, seeds: tuple[Fraction, Fraction] = REDUCED_SEEDS) -> Fraction:
    """Value of the tree vertex addressed by a turn word.

    The seeds must span a Markov fraction tree, as REDUCED_SEEDS, UNIT_SEEDS
    and their integer translates do.  The descent takes one step per run
    of equal letters, one matrix power each (see _run_step), and holds the
    denominator to the value budget (see _descend).
    """
    check_word(word)
    v = _descend(_word_runs(word), _root_of(seeds), "the tree vertex")
    return _coprime_fraction(v[4], v[5])


class MarkovFraction(_Value):
    """A fraction of the reduced tree with its address.

    The two seeds 0/1 and 1/2 carry word None and depth 0; every proper
    vertex carries its turn word and depth == len(word).  The constructor
    checks all of this, the word by one descent (see descend_value).
    """

    __slots__ = ("value", "depth", "word")

    def __init__(self, value: Fraction, depth: int, word: TurnWord | None) -> None:
        p, q = value.numerator, value.denominator
        if not 0 <= 2 * p <= q:
            raise ValueError(f"{value} lies outside [0, 1/2]")
        if (p * p + 1) % q:
            raise ValueError(f"{value} fails the numerator congruence")
        if depth < 0:
            raise ValueError("depth must be nonnegative")
        if depth != (0 if word is None else len(word)):
            raise ValueError(f"depth {depth} does not match the turn word {word!r}")
        if word is None:
            if value not in REDUCED_SEEDS:
                raise ValueError(f"{value} is not a seed, so it needs its turn word")
        elif descend_value(word) != value:
            raise ValueError(f"the tree vertex at {word!r} is not {value}")
        super().__init__(value, depth, word)

    @classmethod
    def _of_vertex(cls, value: Fraction, word: TurnWord | None) -> MarkovFraction:
        """The vertex at word with the given value, without the checks of the constructor.

        Precondition: value is the tree vertex at word, or a seed with word
        None, as a descent or a search builds it, so it lies in [0, 1/2] and
        meets the numerator congruence.  Nothing is checked; the congruence
        alone is a long division on the denominator, most of a deep mu.
        """
        f = object.__new__(cls)
        object.__setattr__(f, "value", value)
        object.__setattr__(f, "depth", 0 if word is None else len(word))
        object.__setattr__(f, "word", word)
        return f


def mu(x: Fraction) -> MarkovFraction:
    """Order isomorphism from [0, 1] rationals onto the Markov fractions.

    The endpoints map to the seeds (0 -> 0/1, 1 -> 1/2); an interior
    rational maps to the reduced-tree vertex at its Farey turn word, so
    mediants of Farey neighbours map to tree mediants of their images.
    One Euclidean pass on the numerator and denominator gives the runs of
    that word (see farey._turn_runs), and the descent takes them as they
    come, one run step each (see _run_step); the word is spelled once, for
    the answer.  The value budget bounds the word and every run.
    """
    p, q = x.numerator, x.denominator
    if not 0 <= p <= q:
        raise ValueError(f"mu is defined on [0, 1]; got {x}")
    if p == 0:
        return MarkovFraction(Fraction(0), 0, None)
    if p == q:
        return MarkovFraction(Fraction(1, 2), 0, None)
    runs = _turn_runs(p, q)
    v = _descend(zip(cycle("LR"), runs), _REDUCED_ROOT, "the tree vertex")
    return MarkovFraction._of_vertex(_coprime_fraction(v[4], v[5]), _spell(runs))


def _branch(k: int, letter: str, what: str) -> MarkovFraction:
    """k-th fraction (k >= 1) of the boundary branch down the constant word letter.

    The vertex is one run step from the root 2/5; the descent holds its
    denominator to the value budget (see _descend).
    """
    if k < 1:
        raise ValueError("branch index starts at 1")
    v = _descend(((letter, k - 1),), _REDUCED_ROOT, what)
    return MarkovFraction._of_vertex(_coprime_fraction(v[4], v[5]), letter * (k - 1))


def fibonacci_branch(k: int) -> MarkovFraction:
    """k-th fraction (k >= 1) of the boundary branch converging to (3 - sqrt(5))/2.

    Starting from 2/5 the branch repeatedly takes the mediant with the seed
    0/1, i.e. descends by the constant word 'L'.  Numerators and
    denominators are every second Fibonacci number, q(k) = F(2k + 3):
    p(k+1) = q(k) and q(k+1) = 3*q(k) - q(k-1), anchored by q(0) = 2,
    q(1) = 5.  A k whose value passes the budget is refused.
    """
    return _branch(k, "L", "fibonacci_branch(k)")


def pell_branch(k: int) -> MarkovFraction:
    """k-th fraction (k >= 1) of the boundary branch converging to sqrt(2) - 1.

    Starting from 2/5 the branch repeatedly takes the mediant with the seed
    1/2, i.e. descends by the constant word 'R'.  The values are ratios
    y(2k)/y(2k+1) of consecutive Pell numbers (y(1), y(2) = 1, 2 and
    y(n+1) = 2*y(n) + y(n-1)); the companion x-sequence solves
    x**2 - 2*y**2 = +-1.  A k whose value passes the budget is refused.
    """
    return _branch(k, "R", "pell_branch(k)")


# -- congruence x**2 + 1 == 0 (mod q) ---------------------------------------

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
# psi13 (Sorenson and Webster 2017): Miller-Rabin to the first 13 of
# _SMALL_PRIMES decides primality below it.
_MR_PROVEN_BELOW = 3317044064679887385961981


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _is_strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test with Selfridge's parameters, for odd n > 47.

    D is the first of 5, -7, 9, -11, ... with Jacobi symbol (D/n) = -1,
    P = 1 and Q = (1 - D)/4.  With n + 1 = k * 2**s, k odd, a prime n has
    U(k) == 0 or V(k * 2**r) == 0 (mod n) for some 0 <= r < s.  A square
    n has no such D and is rejected first.
    """
    if isqrt(n) ** 2 == n:
        return False
    d = 5
    while (j := _jacobi(d, n)) != -1:
        if j == 0:  # |d| < n shares a factor with n
            return False
        d = -d - 2 if d > 0 else -d + 2
    q = (1 - d) // 4
    k, s = n + 1, 0
    while k % 2 == 0:
        k //= 2
        s += 1
    # U(i), V(i) and Q**i mod n, over the bits of k from the top:
    # i -> 2i by U*V and V**2 - 2Q**i, i -> i+1 by (U + V)/2 and (D*U + V)/2.
    u, v, qi = 1, 1, q % n
    for bit in bin(k)[3:]:
        u, v, qi = u * v % n, (v * v - 2 * qi) % n, qi * qi % n
        if bit == "1":
            u, v = u + v, d * u + v
            u = (u + n if u % 2 else u) // 2 % n
            v = (v + n if v % 2 else v) // 2 % n
            qi = qi * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qi = (v * v - 2 * qi) % n, qi * qi % n
        if v == 0:
            return True
    return False


def _is_probable_prime(n: int) -> bool:
    """Primality: a proof below _MR_PROVEN_BELOW, Baillie-PSW above it.

    Miller-Rabin to the 15 bases _SMALL_PRIMES decides every n below
    psi13.  Above it composites pass all 15 bases: Arnault's 397-digit
    number of 1995 is a strong pseudoprime to every prime base below 307.
    There the strong Lucas test is required as well; with the base-2
    Miller-Rabin test it is the Baillie-PSW test, to which no
    counterexample is known.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _MR_PROVEN_BELOW or _is_strong_lucas_probable_prime(n)


# Brent rho iterations per cofactor before it passes to ECM.  Rho finds a
# prime factor p in about sqrt(p) steps, so this splits off factors up to
# about 10**8, every one that verify meets.
_RHO_STEPS = 1 << 14


def _pollard_rho(n: int, rng: random.Random) -> int | None:
    """A proper factor of the odd composite n, or None after _RHO_STEPS steps.

    Brent's cycle-finding variant; a round that would pass the cap is
    not started.
    """
    steps = _RHO_STEPS
    while steps > 0:
        y, c, m = rng.randrange(1, n), rng.randrange(1, n), 128
        g, r, q = 1, 1, 1
        while g == 1 and 2 * r <= steps:
            steps -= 2 * r
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r *= 2
        if g == 1:
            return None
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    return None


# -- elliptic-curve factoring (Lenstra 1987, Montgomery's x-only form) -------

#: The factoring budget: the ECM schedule of one factorisation, as levels
#: (B1, B2, curves) of the standard ECM table (the GMP-ECM README) for
#: prime factors of about 15 and 20 digits, 115 curves in all.  A cofactor
#: left unsplit after them is a ValueError.  At the budget a 40-digit
#: cofactor costs 11-24 s and a 60-digit one 14-31 s (Python 3.11, on a
#: shared 2-core x86-64 machine whose speed varied twofold).
_ECM_SCHEDULE = ((2_000, 147_396, 25), (11_000, 1_873_422, 90))
# Giant-step stride of stage 2: the 24 odd j < D/2 coprime to D = 2*3*5*7
# reach every prime above 7 as m*D - j or m*D + j.
_ECM_D = 210
#: A curve of the ECM schedule: (sigma, k, m_lo, rows), see _ecm_tables.
_Curve = tuple[int, int, int, list[tuple[int, ...]]]


def _x_double(x: int, z: int, a24: int, n: int) -> tuple[int, int]:
    """2P on the Montgomery curve with a24 = (A + 2)/4, in (X : Z) form."""
    s, d = x + z, x - z
    s, d = s * s % n, d * d % n
    t = s - d
    return s * d % n, t * (d + a24 * t) % n


def _x_add(p: tuple[int, int], q: tuple[int, int], diff: tuple[int, int],
           n: int) -> tuple[int, int]:
    """P + Q from P, Q and P - Q, in (X : Z) form."""
    (xp, zp), (xq, zq), (xd, zd) = p, q, diff
    u = (xp - zp) * (xq + zq)
    v = (xp + zp) * (xq - zq)
    s, d = u + v, u - v
    return zd * s * s % n, xd * d * d % n


def _x_ladder(k: int, p: tuple[int, int], a24: int,
              n: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """(kP, (k + 1)P) for k >= 1 by Montgomery's ladder.

    Each bit adds the pair, whose difference stays P, and doubles one of them.
    """
    r0, r1 = p, _x_double(*p, a24, n)
    for bit in bin(k)[3:]:
        if bit == "1":
            r0, r1 = _x_add(r1, r0, p, n), _x_double(*r1, a24, n)
        else:
            r0, r1 = _x_double(*r0, a24, n), _x_add(r1, r0, p, n)
    return r0, r1


def _ecm_tables(b1: int, b2: int) -> tuple[int, int, list[tuple[int, ...]]]:
    """Stage tables for the bounds b1 < b2: (k, m_lo, rows).

    Stage 1 multiplies by k, the product of the largest powers of the
    primes up to b1 that do not pass b1.  Stage 2 walks the giant steps
    m*D for m = m_lo, m_lo + 1, ...; rows[m - m_lo] lists the baby steps
    j, by index, for which m*D - j or m*D + j is a prime in (b1, b2].
    Both share one product term, as x(m*D*Q) = x(j*Q) exactly when
    (m*D - j)Q or (m*D + j)Q is the identity.
    """
    sieve = bytearray([1]) * (b2 + 1)
    sieve[:2] = b"\0\0"
    for p in range(2, isqrt(b2) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, b2 + 1, p)))
    k = 1
    for p in compress(range(b1 + 1), sieve):
        power = p
        while power * p <= b1:
            power *= p
        k *= power
    half = _ECM_D // 2
    babies = [j for j in range(1, half, 2) if gcd(j, _ECM_D) == 1]
    index = {j: i for i, j in enumerate(babies)}
    m_lo = (b1 + 1 + half) // _ECM_D
    rows: list[set[int]] = [set() for _ in range((b2 + half) // _ECM_D - m_lo + 1)]
    for p in compress(range(b1 + 1, b2 + 1), sieve[b1 + 1:]):
        m = (p + half) // _ECM_D
        rows[m - m_lo].add(index[abs(p - m * _ECM_D)])
    return k, m_lo, [tuple(sorted(row)) for row in rows]


def _affine_x(points: list[tuple[int, int]], n: int) -> tuple[int, list[int]]:
    """(1, [X/Z mod n for each point]) with one inversion (Montgomery's trick).

    (g, []) instead when g = gcd(n, product of the Z) is not 1.
    """
    prefix = [1]
    for _, z in points:
        prefix.append(prefix[-1] * z % n)
    g = gcd(prefix[-1], n)
    if g != 1:
        return g, []
    inv = pow(prefix[-1], -1, n)
    xs = [0] * len(points)
    for i in range(len(points) - 1, -1, -1):
        x, z = points[i]
        xs[i] = x * prefix[i] * inv % n
        inv = inv * z % n
    return 1, xs


def _ecm_curve(n: int, sigma: int, k: int, m_lo: int, rows: list[tuple[int, ...]]) -> int:
    """gcd of n with what one curve's two stages find, between 1 and n.

    Suyama's parametrisation: u = sigma**2 - 5 and v = 4*sigma give the
    Montgomery curve with (A + 2)/4 = (v - u)**3 (3u + v)/(16 u**3 v) and
    the point P of x-coordinate u**3/v**3, both brought to one denominator
    by one inversion.  Stage 1 forms Q = kP.  Stage 2 makes the baby steps
    jQ and the giant steps m*D*Q affine, one inversion each, and
    multiplies the differences of the x-coordinates that the rows pair.
    """
    u, v = (sigma * sigma - 5) % n, 4 * sigma % n
    u3 = u * u * u % n
    den = 16 * u3 * pow(v, 4, n) % n
    g = gcd(den, n)
    if g != 1:
        return g
    inv = pow(den, -1, n)
    a24 = pow(v - u, 3, n) * (3 * u + v) * pow(v, 3, n) * inv % n
    q = _x_ladder(k, (16 * u3 * u3 * v * inv % n, 1), a24, n)[0]
    g = gcd(q[1], n)
    if g != 1:
        return g
    two = _x_double(*q, a24, n)
    odd = [q, _x_add(two, q, q, n)]  # jQ for j = 1, 3, ..., D/2
    while len(odd) <= _ECM_D // 4:
        odd.append(_x_add(odd[-1], two, odd[-2], n))
    g, xs = _affine_x([odd[j // 2] for j in range(1, _ECM_D // 2, 2) if gcd(j, _ECM_D) == 1], n)
    if g != 1:
        return g
    step = _x_double(*odd[-1], a24, n)  # D*Q = 2 * (D/2)Q
    giants = list(_x_ladder(m_lo, step, a24, n))
    while len(giants) < len(rows):
        giants.append(_x_add(giants[-1], step, giants[-2], n))
    g, gs = _affine_x(giants, n)
    if g != 1:
        return g
    acc = 1
    for x, row in zip(gs, rows):
        for i in row:
            acc = acc * (x - xs[i]) % n
    return gcd(acc, n)


def _ecm_curves(rng: random.Random) -> Iterator[_Curve]:
    """(sigma, k, m_lo, rows) for each curve of _ECM_SCHEDULE, in order.

    A level's tables are built when the schedule reaches it.
    """
    for b1, b2, count in _ECM_SCHEDULE:
        tables = _ecm_tables(b1, b2)
        for _ in range(count):
            yield (rng.randrange(6, 1 << 32), *tables)


def _ecm(n: int, curves: Iterator[_Curve]) -> int:
    """A proper factor of the odd composite n from the next curves of the schedule."""
    for sigma, k, m_lo, rows in curves:
        g = _ecm_curve(n, sigma, k, m_lo, rows)
        if 1 < g < n:
            return g
    budget = sum(count for _, _, count in _ECM_SCHEDULE)
    raise ValueError(f"a {len(str(n))}-digit cofactor is left unsplit by the factoring "
                     f"budget of {budget} elliptic curves")


def _factorize(n: int) -> dict[int, int] | None:
    """Prime factorisation of n, or None once a factor 3 mod 4 shows.

    Trial division by _SMALL_PRIMES, then per cofactor a primality test,
    Brent's rho for at most _RHO_STEPS steps and, if rho fails, ECM.  An
    odd number whose prime factors are all 1 mod 4 is itself 1 mod 4, so
    a cofactor 3 mod 4 has a prime factor 3 mod 4 and is not split.  All
    cofactors draw their curves from one schedule, so _ECM_SCHEDULE bounds
    the ECM work of the whole factorisation.  Output is deterministic:
    rho and the curves draw from one fixed-seed generator.
    """
    factors: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        while n % p == 0:
            if p % 4 == 3:
                return None
            factors[p] = factors.get(p, 0) + 1
            n //= p
    rng = random.Random(0xC0FFEE)
    curves = _ecm_curves(rng)
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m % 4 == 3:
            return None
        if _is_probable_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        d = _pollard_rho(m, rng) or _ecm(m, curves)
        stack.extend((d, m // d))
    return factors


def _sqrt_minus_one_mod_prime_power(p: int, e: int) -> list[int]:
    """Solutions of x**2 == -1 modulo p**e for a prime p == 1 (mod 4)."""
    # Square root of -1 mod p via a quadratic non-residue.
    n = 2
    while pow(n, (p - 1) // 2, p) != p - 1:
        n += 1
    x = pow(n, (p - 1) // 4, p)
    mod = p
    while mod < p ** e:
        # Newton lift: stable because 2x is invertible (p odd, x nonzero).
        mod = min(mod * mod, p ** e)
        x = (x - (x * x + 1) * pow(2 * x, -1, mod)) % mod
    return sorted((x % p ** e, (-x) % p ** e))


def congruence_brute(q: int) -> list[int]:
    """Roots of x**2 + 1 == 0 (mod q) in [0, q), sorted, by trying every x <= q/2.

    Linear in q; the oracle for solve_congruence in tests and in verify.
    """
    if q == 1:
        return [0]
    found = []
    for x in range(q // 2 + 1):
        if (x * x + 1) % q == 0:
            found.append(x)
            if x != (q - x) % q:
                found.append(q - x)
    return sorted(found)


def solve_congruence(q: int) -> list[int]:
    """All residues x in [0, q) with x**2 + 1 == 0 (mod q), sorted.

    The set is nonempty exactly when q has no prime factor congruent to
    3 mod 4 and is not divisible by 4; Markov numbers always qualify.
    Otherwise the answer is [] as soon as that shows: at once when 4
    divides q or the odd part of q is 3 mod 4, else at the first prime
    factor or unsplit cofactor that is 3 mod 4.  When the roots exist, q
    is factored (see _factorize); square roots of -1 modulo each odd prime
    power are lifted by Newton steps and combined by the Chinese remainder
    theorem.

    Every answer is certified: the prime powers multiply back to q, each
    root solves the congruence, and there are 2**k roots for k odd prime
    factors; a failure raises ArithmeticError.  ValueError when a cofactor
    survives the factoring budget, the curves of _ECM_SCHEDULE.
    """
    if q < 1:
        raise ValueError("modulus must be positive")
    if q % 4 == 0 or (q if q % 2 else q // 2) % 4 == 3:
        return []
    factors = _factorize(q)
    if factors is None:
        return []
    residues = [(0, 1)]  # pairs (residue, modulus), combined by CRT
    for p, e in sorted(factors.items()):
        mod = p ** e
        roots = [1] if p == 2 else _sqrt_minus_one_mod_prime_power(p, e)
        residues = [
            ((r * mod * pow(mod, -1, m) + s * m * pow(m, -1, mod)) % (m * mod), m * mod)
            for r, m in residues
            for s in roots
        ]
    roots = sorted(r for r, _ in residues)
    product = 1
    for p, e in factors.items():
        product *= p ** e
    if (product != q or len(set(roots)) != 1 << len(factors.keys() - {2})
            or any((x * x + 1) % q for x in roots)):
        raise ArithmeticError(f"solve_congruence({q}) failed its certificate")
    return roots


# -- exhaustive scans --------------------------------------------------------


class UnicityReport(_Value):
    """Result of grouping enumerated fractions by denominator."""

    __slots__ = ("depth", "vertex_count", "distinct_denominators", "duplicates")

    @property
    def all_unique(self) -> bool:
        return not self.duplicates


def unicity_scan(depth: int) -> UnicityReport:
    """Check that no denominator repeats among tree fractions to the given depth.

    Seeds are included.  A duplicate denominator would exhibit two Markov
    fractions sharing a Markov number, reported with its fractions in
    increasing order; none is known, and none occurs in any enumerable
    range.  One set of the Markov numbers of _rank_walk, with no numerator,
    decides.  Only if one repeats does a second pass collect the Farey
    positions x of the repeated ones, and each fraction is mu(x).
    """
    qs = [1, 2, *(q for (_, _, q), _, _ in _rank_walk(depth))]
    distinct = set(qs)
    repeated = set() if len(distinct) == len(qs) else {q for q, k in Counter(qs).items() if k > 1}
    duplicates: dict[int, list[Fraction]] = {
        q: [x] for q, x in ((1, Fraction(0)), (2, Fraction(1))) if q in repeated}
    if repeated:
        for (_, _, q), (a1, b1, a2, b2), _ in _rank_walk(depth):
            if q in repeated:
                duplicates.setdefault(q, []).append(Fraction(a1 + a2, b1 + b2))
    return UnicityReport(
        depth, len(qs), len(distinct),
        tuple((q, tuple(sorted(mu(x).value for x in xs))) for q, xs in sorted(duplicates.items())))


# -- generalized equations ---------------------------------------------------


class GeneralizedEquation(_Value):
    """Coefficients of a*x**2 + b*y**2 + c*z**2 = d*x*y*z with a + b + c = d.

    The condition a + b + c = d makes (1, 1, 1) a solution; each coefficient
    divides d in the supported instances, so all Vieta flips stay integral.
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int) -> None:
        if a + b + c != d:
            raise ValueError("coefficients must satisfy a + b + c = d")
        if min(a, b, c) < 1:
            raise ValueError("coefficients must be positive")
        super().__init__(a, b, c, d)

    def satisfied_by(self, x: int, y: int, z: int) -> bool:
        return (self.a * x * x + self.b * y * y + self.c * z * z
                == self.d * x * y * z)


#: The three supported instances: the Markov equation itself, the degree-4
#: pattern (1,1,2,4), and the degree-6 pattern (1,2,3,6).
SUPPORTED_EQUATIONS = {
    "markov": GeneralizedEquation(1, 1, 1, 3),
    "quadric": GeneralizedEquation(1, 1, 2, 4),
    "x3": GeneralizedEquation(1, 2, 3, 6),
}


def generalized_enumerate(eq: GeneralizedEquation, depth: int) -> set[tuple[int, int, int]]:
    """Closure of (1, 1, 1) under the three Vieta flips, to a mutation depth.

    A flip replaces one coordinate by the second root of its quadratic,
    e.g. x -> d*y*z/a - x.  In the supported instances a, b and c divide d,
    so the root is an integer, and it is positive: the two roots have a
    positive sum d*y*z/a and a positive product (b*y**2 + c*z**2)/a.

    Each flip is an involution, so past (1, 1, 1) one flip of every triple
    leads back to where it was reached from and at most two are new.  The
    closure at depth d thus has at most 1 + r*(2**d - 1) triples, with r
    the number of distinct flips of (1, 1, 1): 3*2**d - 2 for the Markov
    equation and 2**(d+1) - 1 for the other two.  A depth whose bound
    passes the vertex budget of the tree scans is rejected up front.
    """
    if eq not in SUPPORTED_EQUATIONS.values():
        raise ValueError(f"unsupported coefficient tuple ({eq.a}, {eq.b}, {eq.c}, {eq.d})")

    def flips(t: tuple[int, int, int]) -> tuple[tuple[int, int, int], ...]:
        x, y, z = t
        return ((eq.d * y * z // eq.a - x, y, z),
                (x, eq.d * x * z // eq.b - y, z),
                (x, y, eq.d * x * y // eq.c - z))

    start = (1, 1, 1)
    _check_scan_depth(depth, len(set(flips(start)) - {start}))
    seen = {start}
    frontier = [start]
    for _ in range(depth):
        next_frontier = []
        for triple in frontier:
            for flipped in flips(triple):
                if flipped not in seen:
                    assert eq.satisfied_by(*flipped)
                    seen.add(flipped)
                    next_frontier.append(flipped)
        frontier = next_frontier
    return seen
