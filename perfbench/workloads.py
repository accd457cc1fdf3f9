"""The four workloads of the gcanon benchmark, their inputs and their gate.

Every workload runs one *pass* at a time: one call chain into the library
whose outputs are then checked against hard-coded class counts and a digest
of the sorted graph6 output stream, pinned from the seed commit.  The
library is reached only through the module namespace returned by
``import_library``, and every call looks the function up at call time, so
the tracer's wrappers see it.

A gate failure (an exception, a wrong count, a wrong digest or a failed
check) counts against ``attempted``; a failed pass is never timed as a
success.
"""

from __future__ import annotations

import hashlib
import importlib
import os
import random
import sys
import time
from types import SimpleNamespace

import families
import probe_pool

MODULES = ("canon", "generate", "graph", "graph6", "ramsey", "sat")

# Probe inputs of a generation workload in quick mode: the first ones of
# its full pool.
QUICK_PROBE_INPUTS = 16


class SetupError(RuntimeError):
    """The library could not be imported from the checkout."""


def import_library(src):
    """Import gcanon afresh from the directory ``src``.

    Any gcanon modules already loaded are dropped first, so each call pays
    the whole import.  Returns a namespace holding the library's modules.
    """
    for name in [m for m in sys.modules
                 if m == "gcanon" or m.startswith("gcanon.")]:
        del sys.modules[name]
    try:
        pkg = importlib.import_module("gcanon")
    except ImportError as e:
        raise SetupError(f"cannot import gcanon from {src}: {e}") from e
    where = os.path.realpath(pkg.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SetupError(f"gcanon was imported from {where}, not from {src}")
    return SimpleNamespace(**{m: importlib.import_module("gcanon." + m)
                              for m in MODULES})


def digest(atoms):
    """sha256 of the sorted, newline-terminated graph6 stream."""
    text = "".join(a + "\n" for a in sorted(atoms))
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def atom_digest(atom):
    return hashlib.sha256(atom.encode("ascii")).hexdigest()[:16]


class Check:
    """Operations attempted and failed, with a reason per failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def op(self, ok, reason=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(reason)
        return ok

    def add(self, other):
        self.attempted += other.attempted
        self.failed += other.failed
        self.reasons += other.reasons[:20 - len(self.reasons)]


# -- canonization streams (canon_sym passes and the latency probe) ----------

def canon_stream(lib, stream, root_refine=False, clock=time.perf_counter):
    """Decode, canonize (with witness and orbits) and encode every input.

    ``stream`` holds ``(key, atom)`` pairs.  Returns one
    ``(key, graph, result, atom_out, seconds, error)`` row per input; the
    seconds, read from ``clock``, cover decode, canonize and encode only.
    With ``root_refine``
    the equitable refinement of the unit partition is also computed for
    each input, outside the timed section, so a traced pass can split the
    canonizer's time.
    """
    decode = lib.graph6.decode_graph6
    canonize = lib.canon.canonize
    encode = lib.graph6.encode_graph6
    unit = lib.graph.OrderedPartition.unit
    rows = []
    for key, atom in stream:
        t0 = clock()
        try:
            g = decode(atom)
            r = canonize(g)
            out = encode(r.canonic)
        except Exception as e:  # counted by the gate, never timed
            rows.append((key, None, None, None, 0.0, repr(e)))
            continue
        dt = clock() - t0
        rows.append((key, g, r, out, dt, None))
        if root_refine:
            lib.canon.refine_equitable(g, unit(g.n))
    return rows


def check_canon_rows(lib, rows, expect, orbits=None):
    """Gate for canon_stream rows.

    ``expect`` maps each key to the pinned digest of its canonical atom;
    ``orbits`` maps a key to its orbit count, where known.  Checks per
    input that the witness permutation maps the input onto the canonic
    graph, that the atom is the key's pinned one and that the orbit count
    matches; per key, that all relabelings share one atom; across keys,
    that distinct keys have distinct atoms.  Returns the Check and, per
    row, its latency or None where the input failed.
    """
    atoms_of = {}
    for key, _, _, out, _, err in rows:
        if err is None:
            atoms_of.setdefault(key, set()).add(out)
    owner = {}
    clash = set()
    for key, atoms in atoms_of.items():
        for a in atoms:
            if a in owner and owner[a] != key:
                clash.update((key, owner[a]))
            owner[a] = key
    chk = Check()
    latencies = []
    for key, g, r, out, dt, err in rows:
        ok = chk.op(*_canon_row_verdict(lib, key, g, r, out, err, atoms_of,
                                        clash, expect, orbits))
        latencies.append(dt if ok else None)
    return chk, latencies


def _canon_row_verdict(lib, key, g, r, out, err, atoms_of, clash, expect,
                       orbits):
    if err is not None:
        return False, f"{key}: {err}"
    if lib.graph.apply_permutation(g, r.permutation) != r.canonic:
        return False, f"{key}: permutation does not give the canonic graph"
    if len(atoms_of[key]) != 1 or key in clash:
        return False, f"{key}: relabelings disagree or atom shared"
    if atom_digest(out) != expect.get(key):
        return False, f"{key}: canonical atom differs from the pinned one"
    if orbits is not None and len(set(r.orbits)) != orbits[key]:
        return False, (f"{key}: {len(set(r.orbits))} orbits, "
                       f"expected {orbits[key]}")
    return True, ""


def relabeled_atom(lib, g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return lib.graph6.encode_graph6(lib.graph.apply_permutation(
        g, lib.graph.Permutation(tuple(perm))))


# -- workloads ---------------------------------------------------------------

class Workload:
    name = ""
    why = ""

    def setup(self, lib, seed, quick):
        """Build the inputs of one run from the seed."""
        raise NotImplementedError

    def run(self, lib, state, root_refine=False, clock=time.perf_counter):
        """One pass; returns its raw output.  A workload that times its
        inputs reads ``clock``."""
        raise NotImplementedError

    def check(self, lib, state, out):
        """Gate one pass's output.  Returns the Check and, for a pass made
        of canonizations, each input's latency (None where it failed)."""
        raise NotImplementedError

    def fingerprint(self, lib, out):
        """A value that two passes with equal outputs share."""
        raise NotImplementedError

    def counts(self, out):
        """Per-pass counts that only the workload's output shows."""
        return {}


class Generation(Workload):
    """A workload whose pass returns lists of canonical graphs, each list
    checked against a pinned class count and stream digest."""

    # per size: list of (pipeline argument, class count, stream digest)
    cases = {}

    def pass_state(self, lib, quick):
        """The pipeline calls of one pass and their expected results."""
        cases = self.cases["quick" if quick else "full"]
        return SimpleNamespace(cases=cases,
                               args=[self.argument(lib, c[0]) for c in cases])

    def setup(self, lib, seed, quick):
        """The pass, and the canon-latency probe: each pool input in a
        seeded relabeling, keyed by its pinned canonical atom."""
        state = self.pass_state(lib, quick)
        pool = probe_pool.load(self.name)
        if quick:
            pool = pool[:QUICK_PROBE_INPUTS]
        rng = random.Random(seed)
        decode = lib.graph6.decode_graph6
        state.probe = [(canonical, relabeled_atom(lib, decode(atom), rng))
                       for atom, canonical in pool]
        return state

    def argument(self, lib, arg):
        return arg

    def fingerprint(self, lib, out):
        return tuple(digest(map(lib.graph6.encode_graph6, gs)) for gs in out)

    def check(self, lib, state, out):
        """One operation per pipeline call: its class count, its stream
        digest and the validity of every class must all hold."""
        chk = Check()
        for (arg, count, dig), gs in zip(state.cases, out):
            atoms = [lib.graph6.encode_graph6(g) for g in gs]
            if len(atoms) != count:
                chk.op(False, f"{self.name} {arg}: {len(atoms)} classes, "
                              f"expected {count}")
            elif digest(atoms) != dig:
                chk.op(False,
                       f"{self.name} {arg}: output stream digest differs")
            else:
                chk.op(all(self.valid(lib, arg, g) for g in gs),
                       f"{self.name} {arg}: a class fails the property check")
        return chk, []

    def valid(self, lib, arg, g):
        return True

class Geng(Generation):
    name = "geng8"
    why = ("all graphs on 8 vertices: 145k canonizations of tiny graphs, "
           "no filter and no SAT")
    cases = {
        "full": [(8, 12346, "96c4414d36ceb063a3ed874764c98c56"
                                "0a9e297c24e3340e3bd18f64e008150c")],
        "quick": [(5, 34, "a861c3acbf0b8b8df1672307d598f809"
                           "3c85f6422a413336f33b549d99f911f6")],
    }

    def run(self, lib, state, root_refine=False, clock=time.perf_counter):
        return [lib.generate.all_nonisomorphic(n) for n in state.args]


class RamseyGT(Generation):
    name = "ramsey_gt"
    why = ("generate-test-reduce for R(3,5) on 13 vertices: extensions, the "
           "Ramsey filter and reduce dominate")
    cases = {
        "full": [((3, 5, 13), 1, "25db41a2174e54225635617644561b84"
                                  "c53a2d3897c9ac070027f2796fec3c12")],
        "quick": [((3, 5, 6), 32, "f8ff16ef7d9623956a10e546ab75001f"
                                   "5e08c9d56a75d604e5d7770b42294a1f")],
    }

    def argument(self, lib, arg):
        return lib.ramsey.RamseyInstance(*arg)

    def run(self, lib, state, root_refine=False, clock=time.perf_counter):
        return [lib.ramsey.gen_ramsey_gt(inst) for inst in state.args]

    def valid(self, lib, arg, g):
        return lib.ramsey.is_ramsey(lib.ramsey.RamseyInstance(*arg), g)


class RamseyCG(RamseyGT):
    name = "ramsey_cg"
    why = ("constrain-generate-reduce for R(3,5) on 10 and 11 vertices: the "
           "only workload that runs the SAT solver")
    cases = {
        "full": [((3, 5, 10), 313, "cc1a871712660000a1cd7b91ae44cf4b"
                                    "0d105fd3b8dd1425d9266ed0725a457f"),
                 ((3, 5, 11), 105, "c862b84c35fe563fb4504390a3a8bbe5"
                                    "c8558bd78cc23214489aa1c4f2688b39")],
        "quick": [((3, 5, 5), 13, "375d018144a2ccc80e814966d5b8e84d"
                                   "4cadc1d83c098d40d2ed521d8c2824c0")],
    }

    def run(self, lib, state, root_refine=False, clock=time.perf_counter):
        return [lib.ramsey.gen_ramsey_cg(inst) for inst in state.args]


class CanonSym(Workload):
    name = "canon_sym"
    why = ("a graph6 stream of 52 fixed graphs up to n=62, many highly "
           "symmetric, in seeded relabelings: the canonizer's search tree")
    # family name -> atom_digest of its canonical atom, pinned from the seed
    pins = {
        "empty4": "e8e7bfea1aeb3bc7", "empty8": "f1f03c016173ebe2",
        "empty12": "92f1760053384c8c", "empty13": "1abc32d7476b8085",
        "empty14": "d46bd71b8d35f529", "K4": "d65ffb1d8d01ba8a",
        "K8": "34fff80f29e6e5db", "K12": "12822a51461be78e",
        "K13": "97ee15dd962c5a72", "K14": "bcc11c11d58db769",
        "K2,2": "bb5f7ec2e32f0768", "K4,4": "210d028be01c4d96",
        "K6,6": "0818780c18041213", "K8,8": "67368fbbf7ec321a",
        "2xK5,5": "da6a371eddebf18d", "3xK4,4": "457aba9ca86c8fff",
        "5xK4": "ba31070cd7564aa9", "4xC5": "db3a08bdf2427f81",
        "3xPetersen": "48fe2803ee6be870", "Q4": "5fb6e41fe187ff2b",
        "Q5": "53c0a38cb44d8023", "C30": "4b0cfaa942cebea8",
        "C60": "89d20a6e4dc0857c", "Petersen": "0b1cb98f136f498e",
        "Paley13": "99d6d728beb9f272", "Paley29": "97e6f7077400ca9e",
        "Paley37": "185694afd867e90f", "Paley61": "37a59830eaee540f",
        "G(16,1/2)": "dffd4d5fde042785", "G(18,1/2)": "e61100b80f5990fa",
        "G(20,1/2)": "126ef32acc10f2ac", "G(22,1/2)": "0e00aa7470b08cd2",
        "G(24,1/2)": "d4dd2c820b7082db", "G(26,1/2)": "86d22a979e538da0",
        "G(28,1/2)": "029def7d5e442232", "G(30,1/2)": "e277b91571cc669b",
        "G(32,1/2)": "3b9b98c811196a59", "G(34,1/2)": "f18030d66bd68014",
        "G(36,1/2)": "6fb13e0afd0645ac", "G(38,1/2)": "372fe26edd26393d",
        "G(40,1/2)": "25398d6862150579", "G(42,1/2)": "185709ce2cf5096f",
        "G(44,1/2)": "8a4bc0947d9ec2be", "G(46,1/2)": "8881a6b4d2b9b1e2",
        "G(48,1/2)": "a09917f569128438", "G(50,1/2)": "85a14b562f94bd68",
        "G(52,1/2)": "d8e618903e2d7b74", "G(54,1/2)": "d31f8481802f5ff4",
        "G(56,1/2)": "9ade3ca79b246b23", "G(58,1/2)": "a6f6304ccebe12f6",
        "G(60,1/2)": "1f1a444cd524db4c", "G(62,1/2)": "8c50e2a39afd56c4",
        "empty6": "2fdba9063f1c4578",
    }

    def setup(self, lib, seed, quick):
        fams = families.quick_families() if quick else families.all_families()
        rng = random.Random(seed)
        stream = []
        for f in fams:
            g = lib.graph.Graph.from_edges(f.n, f.edges)
            for _ in range(f.relabelings):
                stream.append((f.name, relabeled_atom(lib, g, rng)))
        # Interleave the families, so that each latency percentile samples
        # the whole pass and not one stretch of it.
        rng.shuffle(stream)
        return SimpleNamespace(
            stream=stream, probe=[],
            orbits={f.name: f.orbits for f in fams},
            pins={f.name: self.pins.get(f.name) for f in fams})

    def run(self, lib, state, root_refine=False, clock=time.perf_counter):
        return canon_stream(lib, state.stream, root_refine, clock)

    def check(self, lib, state, out):
        chk, latencies = check_canon_rows(lib, out, state.pins, state.orbits)
        for _ in range(len(state.stream) - len(out)):
            chk.op(False, f"{self.name}: an input gave no result")
        return chk, latencies

    def fingerprint(self, lib, out):
        return tuple((key, atom) for key, _, _, atom, _, _ in out)

    def counts(self, out):
        return {"canon.orbits": sum(len(set(r.orbits))
                                    for _, _, r, _, _, err in out
                                    if err is None)}


WORKLOADS = {w.name: w for w in (Geng(), RamseyGT(), RamseyCG(), CanonSym())}
