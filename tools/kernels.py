"""Time the urn's, the space files' and the towers' kernels one layer at a time.

    python3 tools/kernels.py

Runs each kernel REPEAT times in this interpreter and prints, per kernel,
the median time and the SHA-256 of a text form of its output:

- ``build_urn_space`` at N = 300 and N = 1000 (alpha 2), every capacity's
  reduced exact form, read after the timed call;
- ``build_urn_space`` at N = 1000 with no capacity read: the batch of
  tables it checked, its numerators table by table (the rows of its mask
  columns) and denominator;
- ``build_urn_space`` at N = 1000 and alpha 3/2, whose 2001 float tables
  are checked one at a time: every capacity's values in mask order, as
  their reprs, so a value's type is pinned too;
- ``xi`` of the four bets (times u1 = 3/5) over the Z urn at N = 1000, the
  four result forms, with the urn rebuilt from its batch before each run,
  so no capacity built on demand carries over;
- one step ``xi_chain(seq, f, 0, 1)`` of the bet on blue for each of X, Y
  (N = 300) and Z (N = 1000), the benchmark's urn commands, the urn rebuilt
  the same way;
- the next step ``xi_chain(seq, g, 1, 2)`` for X and Y (N = 300), g being
  the first step's output: their weight layer, one mass vector over the
  2N+1 capacities, with that layer rebuilt from its capacity before each run;
- ``core._checked_table``, the one-table check that ``spacefile`` runs, on
  the 16-point full table that ``benchmarks/spacegen.py`` writes for seed
  1, given as its exact form;
- ``load_space_file`` on that generator's seed 1 dense and additive texts,
  the JSON decoding included: the loaded capacity's exact form and its
  integral of the act ``f``;
- ``build_tower`` over a 2-point base on the 1/3 grid, 3 levels deep, every
  level's capacities by name and reduced exact form, read after the timed
  call, as each level is stored as its batch of mass columns;
- ``mu`` on that tower's top view (level 2's 20 points carrying level 3's
  1540 capacities) of the point mass at its middle point and of an
  additive weight drawn by ``laws.rand_additive`` from seed 1, the averaged
  capacity's exact form; the weight is rebuilt before each run, but the
  view is built once, and its capacities on the first run, as the laws
  reuse a tower's views;
- the associativity oracle's evaluation acts on that tower, ``xi`` of
  level 1's view against ``epsilon`` of level 0's view on each of the 4
  base subsets: mu's defining table for each of level 2's 20 points, the
  four acts' forms; the views are built once, as for ``mu``;
- ``name_of`` on that tower's top view, rebuilt from its batch before each
  run: its 1540 capacities built from the batch and each looked up by
  ``name_of``, which hashes every one, every name found and its capacity's
  exact form;
- ``iota`` on that tower from level 3 to level 1 (each of the 1540 points
  averaged down twice) and from level 1 to level 3 (each of the 4 points
  lifted as point masses), every image's name and exact form: the reads
  the retraction suite makes through the tower's views;
- ``laws.rand_capacity`` on 6 points from seed 1, the table's exact form;
- ``Capacity.value`` of a mass vector on n = 10, 300 and 3000 points, drawn
  by ``laws.rand_additive`` from seed 1, at every cumulative mask of the
  chain of an act drawn next by ``laws.rand_act``: the values, in chain
  order;
- ``choquet_integral`` of an act drawn by ``laws.rand_act`` against a dense
  table drawn by ``laws.rand_capacity`` on n = 3, 8 and 16 points, and
  against a mass vector drawn by ``laws.rand_additive`` on n = 10, 300 and
  3000 points, all from seed 1: the integral.  The act is rebuilt from its
  values before each run, so its chain is derived in the timed call.

A digest that differs from ``DIGESTS`` is printed as FAIL and the script
exits 1: a kernel whose output changes is a broken kernel, not a faster one.
Standard library only; the package is imported from ``src/`` beside this
directory.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import random
import statistics
import sys
from fractions import Fraction
from itertools import accumulate, chain
from operator import or_
from pathlib import Path
from time import perf_counter
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

import spacegen  # noqa: E402  benchmarks/spacegen.py, read only

from choquet_tower import core  # noqa: E402
from choquet_tower.category import dirac, mu  # noqa: E402
from choquet_tower.choquet import choquet_integral  # noqa: E402
from choquet_tower.core import Act, make_space  # noqa: E402
from choquet_tower.ellsberg import (UrnParams, build_sequence,  # noqa: E402
                                    build_urn_space, standard_acts)
from choquet_tower.hierarchy import USequence, xi_chain  # noqa: E402
from choquet_tower.laws import rand_act, rand_additive, rand_capacity  # noqa: E402
from choquet_tower.spacefile import load_space_file  # noqa: E402
from choquet_tower.tower import build_tower, iota  # noqa: E402
from choquet_tower.uncertainty import UncertaintySpace, epsilon, xi  # noqa: E402

U1 = Fraction(3, 5)
#: timed runs of each kernel
REPEAT = 7
#: SHA-256 of each kernel's output text
DIGESTS = {
    "build_urn_space N=300":
        "8f165c8d24326296dcfe0a5c36bbf5698c99760da5535222e134bab6f95c28f6",
    "build_urn_space N=1000":
        "f15a0287e9aa728b99d3e4c766a8004807dd50d0a8d8ce0c6f12d130371f5cf4",
    "build_urn_space N=1000 batch":
        "6e23b9a70222d12722663c5fbba1a4feea8c2b87a0af095bc17fa03dcf62df74",
    "build_urn_space alpha 3/2, N=1000":
        "f77da36321ba83868579f43503d16f7b9508206a17f2d1ec202cd4883a89c660",
    "xi Z urn, four bets":
        "d42df4d930b61f6b14a398c51a88d27e41fb6b6c5d366c8beee8541fcf07b66f",
    # X and Y share the urn at N = 300, so their first steps agree
    "xi_chain 0->1 X":
        "a57c60ffd6eed742127f0eea59b3cc34f5e9e6a8fafbcf3fec9805f9bef4de1e",
    "xi_chain 0->1 Y":
        "a57c60ffd6eed742127f0eea59b3cc34f5e9e6a8fafbcf3fec9805f9bef4de1e",
    "xi_chain 0->1 Z":
        "66cfbf34d4805273b378832e1cab8331eba25b61130734661bffb93c5b1f113b",
    "xi_chain 1->2 X":
        "9c83cfe3156a30327318ad6b6473d1fc5af2f6c409f68b4b1ee1b10330875ca4",
    "xi_chain 1->2 Y":
        "74574012086248ec735aeb482917510bb46747eb23e78fcda245b8bf17aa92c2",
    "spacefile _checked_table 16 points":
        "4ccbec1740ba98b4f2fa1e5306a409458bf4cffb3ac2c36ec03fd8e7d49d85d3",
    "load_space_file dense":
        "60e1f7bf97ed10dfc0d6489522d05a2ab0db55a2ec6015c6ec042842da81f3e5",
    "load_space_file additive":
        "ae7af1ad1d29b1cf9701b422c69fa597617f5cb26f40f10ef73a817df97460a8",
    "build_tower base 2, grid 3, depth 3":
        "209130ad1fbac6ce2b97ae0b1ad996120cd90df13250275a748a25cd1fe36556",
    "mu top view, point mass":
        "a62d7c6dde4a154ed1e5b57a5a9a3122eb9ed5fbfa14ffc6ff8e6e9ae66b0095",
    "mu top view, drawn weight":
        "cec27d398f0b4ec3db27e53c7289f7977d6a71339a7a20d941b243766d3c91c0",
    # the acts built from iota 2->1, which runs mu on each level-2 point, hash the same
    "associativity evaluations grid 3":
        "cfe1641c182182ebd7136c02da5eee1db8b2686324c9c30a6d9930856bee3b83",
    "name_of top view, every capacity":
        "e6f80b82a0dc53add6ec446eeab1d871d0d0616311018ce8f807cf4ca3239409",
    "iota 3->1":
        "54deea8f4e4abebcb490e1403828d79f8a6ce245b9d857d8d65eee93a9f49d9d",
    "iota 1->3":
        "5e483e3e1d19d3e4168c02946d34f715687af0bcf74c9828c8b1258966d7dc67",
    "rand_capacity 6 points":
        "157d750f494490cd906ab8f1dc53a780c298fe2b65d2a71c485236e4ea68a2d1",
    "value mass vector n=10":
        "05f1e6289ac2cc0b28b1912a5da38e414d3fbce41b347c922194cc885545f857",
    "value mass vector n=300":
        "6cdea638bfd6acd1dcd3b2d02c54acf2053ac43c543e33f739b147f3aa88fe1d",
    "value mass vector n=3000":
        "3d357cd5f58cdf161b141547a02d38fe1793dfd1fc5aeb5f85f58a235fac9710",
    "choquet_integral dense n=3":
        "af0501c419dfd1ad4bb7046f63ffdb5761604efd48b29f7c2986ec12254d68a4",
    "choquet_integral dense n=8":
        "e8bb55eb6be61e20d427cc00accd5d72e019e603f756d2a17773df121a9a590b",
    "choquet_integral dense n=16":
        "fb37dd4e408b92cfe731bc42709254766d090b5117852a8970dc139cc62cacf1",
    "choquet_integral masses n=10":
        "9767b5f13f4b97a12b75d5ad6a98bea16b4855f40c415a1c1d95676196778da4",
    "choquet_integral masses n=300":
        "03ea290dd75b2f09ea2274a31b360d1edf585f8a3a5bae9a4959c55574849547",
    "choquet_integral masses n=3000":
        "195f8864a41ed7134ff26e598c4171ca769e5b5a5c308717bbfcc2d0836aa15a",
}


def _form_text(nums, den) -> str:
    return ",".join(map(str, nums)) + "/" + str(den)


def _space_text(us: UncertaintySpace) -> str:
    return "\n".join(f"{name} {_form_text(*cap.exact_form)}" for name, cap in us.capacities)


def _values_text(us: UncertaintySpace) -> str:
    return "\n".join(f"{name} " + ",".join(repr(cap.value(mask)) for mask in us.base.all_masks())
                     for name, cap in us.capacities)


def _fresh(us: UncertaintySpace) -> UncertaintySpace:
    # the urn's batch in a new space, so no capacity built on demand carries over
    return UncertaintySpace.of_columns(us.base, us.names, *us.batch)


def _fresh_weights(seq: USequence) -> USequence:
    # the weight layer in a new space, so nothing derived on first use carries over
    urn, weights, *rest = seq.levels
    return USequence((urn, UncertaintySpace(weights.base, weights.capacities), *rest))


def _bets(space) -> list:
    return [act.scale(U1) for act in standard_acts(space).values()]


def _loaded_text(loaded, name: str) -> str:
    cap = loaded.capacities[name]
    return f"{_form_text(*cap.exact_form)}\n{choquet_integral(cap, loaded.acts['f'])}"


def _tower_text(tower) -> str:
    return "\n".join(f"{name} {_form_text(*cap.exact_form)}"
                     for view in tower.views for name, cap in view.capacities)


def _images_text(images: dict) -> str:
    return "\n".join(f"{name} {_form_text(*cap.exact_form)}" for name, cap in images.items())


def _drawn(n: int, draw: Callable) -> tuple:
    # a capacity drawn on n points from seed 1, and an act drawn next
    rng = random.Random(1)
    space = make_space([f"p{i}" for i in range(n)])
    return draw(rng, space), rand_act(rng, space)


def _value_calls(n: int) -> tuple:
    # a drawn mass vector on n points and the cumulative masks of a drawn act
    u, f = _drawn(n, rand_additive)
    return u, list(accumulate((mask for mask, _ in f.chain_blocks), or_))


def _spacegen_form() -> tuple:
    doc = json.loads(spacegen.generate(1)["dense"].text)
    n = len(doc["points"])
    values = [Fraction(doc["capacities"]["w"]["values"][format(mask, f"0{n}b")[::-1]])
              for mask in range(1 << n)]
    den = math.lcm(*(v.denominator for v in values))
    return make_space(doc["points"]), ([v.numerator * (den // v.denominator)
                                        for v in values], den)


def kernels() -> dict[str, tuple[Callable, Callable, Callable[..., str]]]:
    """Per kernel name: a set-up run before each timed call, returning its
    arguments; the timed call; and the text of the call's output."""
    z_urn = build_urn_space(UrnParams(1000, 2, U1))
    z_bets = _bets(z_urn.base)
    seqs = {v: build_sequence(v, UrnParams(1000 if v == "Z" else 300, 2, U1)) for v in "XYZ"}
    space16, form16 = _spacegen_form()
    no_args = lambda: ()  # noqa: E731
    form_text = lambda x: _form_text(*x.exact_form)  # noqa: E731

    out = {}
    for big_n in (300, 1000):
        params = UrnParams(big_n, 2, U1)
        out[f"build_urn_space N={big_n}"] = (
            no_args, lambda params=params: build_urn_space(params), _space_text)
    out["build_urn_space N=1000 batch"] = (
        no_args, lambda: build_urn_space(UrnParams(1000, 2, U1)),
        lambda us: _form_text(chain.from_iterable(zip(*us.batch[0])), us.batch[1]))
    out["build_urn_space alpha 3/2, N=1000"] = (
        no_args, lambda: build_urn_space(UrnParams(1000, Fraction(3, 2), U1)), _values_text)
    out["xi Z urn, four bets"] = (
        lambda: (_fresh(z_urn),), lambda us: [xi(us, f) for f in z_bets],
        lambda acts: "\n".join(map(form_text, acts)))
    for variant, seq in seqs.items():
        blue = _bets(seq.base_space())[1]
        out[f"xi_chain 0->1 {variant}"] = (
            lambda seq=seq: (USequence((_fresh(seq.levels[0]), *seq.levels[1:])),),
            lambda s, blue=blue: xi_chain(s, blue, 0, 1), form_text)
    for variant in "XY":
        seq, blue = seqs[variant], _bets(seqs[variant].base_space())[1]
        out[f"xi_chain 1->2 {variant}"] = (
            lambda seq=seq, blue=blue: (_fresh_weights(seq), xi_chain(seq, blue, 0, 1)),
            lambda s, act: xi_chain(s, act, 1, 2), form_text)
    out["spacefile _checked_table 16 points"] = (
        no_args, lambda: core._checked_table(space16, *form16), form_text)
    for kind, case in spacegen.generate(1).items():
        out[f"load_space_file {kind}"] = (
            no_args, lambda text=case.text: load_space_file(json.loads(text)),
            lambda loaded, name=case.capacity: _loaded_text(loaded, name))
    out["build_tower base 2, grid 3, depth 3"] = (
        no_args, lambda: build_tower(make_space(["a", "b"]), 3, 3), _tower_text)
    tower = build_tower(make_space(["a", "b"]), 3, 3)
    top = tower.views[-1]
    weights, space6 = top.capacity_space, make_space(["a", "b", "c", "d", "e", "f"])
    out["mu top view, point mass"] = (
        lambda: (top, dirac(weights, weights.points[len(weights) // 2])), mu, form_text)
    out["mu top view, drawn weight"] = (
        lambda: (top, rand_additive(random.Random(1), weights)), mu, form_text)
    out["associativity evaluations grid 3"] = (
        lambda: (tower,), lambda t: [xi(t.view(1), epsilon(t.view(0), mask))
                                     for mask in t.base.all_masks()],
        lambda acts: "\n".join(map(form_text, acts)))
    out["name_of top view, every capacity"] = (
        lambda: (_fresh(top),),
        lambda us: {us.name_of(cap): cap for _, cap in us.capacities}, _images_text)
    for m, n in ((3, 1), (1, 3)):
        out[f"iota {m}->{n}"] = (lambda m=m, n=n: (tower, m, n), iota, _images_text)
    out["rand_capacity 6 points"] = (
        lambda: (random.Random(1), space6), rand_capacity, form_text)
    for n in (10, 300, 3000):
        args = _value_calls(n)
        out[f"value mass vector n={n}"] = (
            lambda args=args: args, lambda u, masks: [u.value(m) for m in masks],
            lambda values: ",".join(map(str, values)))
    for kind, draw, sizes in (("dense", rand_capacity, (3, 8, 16)),
                              ("masses", rand_additive, (10, 300, 3000))):
        for n in sizes:
            u, f = _drawn(n, draw)
            out[f"choquet_integral {kind} n={n}"] = (
                lambda u=u, values=f.values: (u, Act(u.space, values)), choquet_integral, str)
    return out


def measure(repeat: int) -> dict[str, tuple[float, str]]:
    """Median seconds and output digest per kernel."""
    results = {}
    for name, (setup, call, text) in kernels().items():
        times, digests = [], set()
        for _ in range(repeat):
            args = setup()
            start = perf_counter()
            result = call(*args)
            times.append(perf_counter() - start)
            digests.add(hashlib.sha256(text(result).encode()).hexdigest())
        if len(digests) != 1:
            raise AssertionError(f"{name} gave different outputs across runs")
        results[name] = (statistics.median(times), digests.pop())
    return results


def main(repeat: int = REPEAT) -> int:
    print(f"python {platform.python_version()}, {platform.machine()}, "
          f"{len(os.sched_getaffinity(0))} CPUs, median of {repeat}")
    failed = False
    for name, (seconds, digest) in measure(repeat).items():
        ok = DIGESTS.get(name) == digest
        failed |= not ok
        print(f"{name:36s} {seconds * 1000:9.3f} ms  sha256 {digest[:16]}"
              + ("" if ok else "  FAIL"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
