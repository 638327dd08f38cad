"""The three workloads.  Each builds its inputs from the seed in `setup`,
runs one op per `run_op` call and checks the recorded answers in `verify`,
which returns the ops whose answer is wrong.  `plant` turns a right answer
into a wrong one, which `verify` must reject."""

from __future__ import annotations

import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import inputs as I
import verify as V

TWIST_SAMPLE = 40


@dataclass(frozen=True)
class OpError:
    """The answer of an op that raised an undocumented exception."""

    reason: str


class Decide:
    name = "decide"
    per_pass = False

    def __init__(self, bdm, tiny: bool):
        self.bdm = bdm
        self.tiny = tiny

    def setup(self, seed: int) -> str:
        bdm = self.bdm
        raw = I.decide_inputs(seed, 30 if self.tiny else I.RANDOM_SENTENCES)
        self.raw = raw
        self.caps = bdm.Caps(**I.DECIDE_CAPS)
        algebras = {}
        self.ops = []
        for op in raw:
            alg = algebras.setdefault(op["base"], I.to_algebra(bdm, op["base"]))
            env = {k: I.to_element(bdm, alg, v) for k, v in op["env"].items()}
            self.ops.append((alg, I.to_ast(bdm.terms, op["formula"]), env))
        self.seed = seed
        return I.digest(raw)

    def run_op(self, k: int):
        alg, f, env = self.ops[k]
        try:
            return self.bdm.decide(alg, f, env, self.caps)
        except self.bdm.CapExceeded:
            return "undecided"

    def verify(self, answers: dict) -> dict[int, str]:
        """Type sentences against the oracle's witness search; a seeded
        sample of the other decided sentences against the same sentence with
        the parameters moved into the twist product."""
        bdm = self.bdm
        bad = {}
        decided = []
        for k, answer in answers.items():
            op = self.raw[k]
            if answer == "undecided":
                continue
            if op["kind"] == "type":
                alg = self.ops[k][0]
                t = bdm.Triple(alg, *(frozenset(s) for s in op["triple"]))
                want = bdm.oracle_witness_search(t) is not None
                if answer != want:
                    bad[k] = f"type sentence answered {answer}, oracle says {want}"
            else:
                decided.append(k)
        rng = random.Random(self.seed)
        for k in rng.sample(sorted(decided), min(TWIST_SAMPLE, len(decided))):
            alg, f, env = self.ops[k]
            ext, r = bdm.twist_product(alg)
            try:
                moved = bdm.decide(ext, f, {n: r.map_element(v) for n, v in env.items()}, self.caps)
            except bdm.CapExceeded:
                continue
            if moved != answers[k]:
                bad[k] = f"answer {answers[k]} changes to {moved} in the twist product"
        return bad

    def undecided(self, k: int, answer) -> bool:
        return answer == "undecided"

    def plant(self, answers: dict) -> dict[int, object]:
        k = next((k for k, a in answers.items() if self.raw[k]["kind"] == "type"
                  and a != "undecided"), None)
        return {} if k is None else {k: not answers[k]}


class BackAndForth:
    name = "back-and-forth"
    per_pass = False

    def __init__(self, bdm, tiny: bool):
        self.bdm = bdm
        self.tiny = tiny

    def setup(self, seed: int) -> str:
        bdm = self.bdm
        raw = (I.back_and_forth_inputs(seed, small_atoms=2, big_refinements=3) if self.tiny
               else I.back_and_forth_inputs(seed))
        self.raw = raw["ops"]
        caps = bdm.Caps(**I.STAGE_CAPS)
        algebras = {}
        self.stages = {b: bdm.ec_stage(algebras.setdefault(b, I.to_algebra(bdm, b)), caps)
                       for b in raw["stages"]}
        refinements = {}
        self.ops = []
        for op in self.raw:
            ref = op["ref"]
            if ref not in refinements:
                refinements[ref] = I.to_refinement(bdm, ref, algebras)
            rv = refinements[ref]
            v = I.to_element(bdm, rv.target, I.mask_atoms(op["v"]))
            self.ops.append((self.stages[op["base"]], rv, v))
        return I.digest(raw)

    def rebuild_stages(self):
        """Build the stages again, for a traced pass that counts them."""
        caps = self.bdm.Caps(**I.STAGE_CAPS)
        rebuilt = {id(s): self.bdm.ec_stage(s.base, caps) for s in self.stages.values()}
        self.ops = [(rebuilt[id(s)], rv, v) for s, rv, v in self.ops]

    def run_op(self, k: int):
        stage, rv, v = self.ops[k]
        u, iso = self.bdm.find_matching_element(stage, rv, v)
        return u.mask, iso

    def verify(self, answers: dict) -> dict[int, str]:
        shapes = {}
        bad = {}
        for k, answer in answers.items():
            stage = self.ops[k][0]
            if id(stage) not in shapes:
                emb = stage.embedding
                shapes[id(stage)] = (stage.algebra.sigma,
                                     [V.set_mask(emb.cell(i)) for i in emb.source.atom_indices])
            reason = V.check_match(self.raw[k], *shapes[id(stage)], answer)
            if reason:
                bad[k] = reason
        return bad

    def undecided(self, k: int, answer) -> bool:
        return False

    def plant(self, answers: dict) -> dict[int, object]:
        """Map the first two atoms to the same image, so the bijection is
        none (a swap could be another isomorphism)."""
        k = max(answers, key=lambda k: len(answers[k][1]), default=None)
        if k is None:
            return {}
        u, iso = answers[k]
        return {k: (u, (iso[0], iso[0]) + tuple(iso[2:]))}


class Cli:
    """Each op is one `python -m bdm.cli` process and its answer is the exit
    code and stdout; ops run in whole passes over the script, so stdout can
    be compared byte for byte across passes."""

    name = "cli"
    per_pass = True

    def __init__(self, tiny: bool, work: Path, src: Path, entry: Path):
        self.tiny = tiny
        self.work = work
        self.src = src
        self.entry = entry
        self.trace_dir = None

    def setup(self, seed: int) -> str:
        raw = I.cli_inputs(seed, heavy=not self.tiny)
        self.work.mkdir(parents=True, exist_ok=True)
        for name, text in raw["files"].items():
            (self.work / name).write_text(text)
        self.ops = raw["commands"]
        self.env = dict(os.environ, PYTHONPATH=str(self.src), PYTHONDONTWRITEBYTECODE="1")
        return I.digest(raw)

    def run_op(self, k: int):
        argv = self.ops[k]["argv"]
        if self.trace_dir is None:
            cmd = [sys.executable, "-m", "bdm.cli", *argv]
        else:
            cmd = [sys.executable, str(self.entry), str(self.trace_dir / f"{k}.spans"), *argv]
        proc = subprocess.run(cmd, cwd=self.work, env=self.env, capture_output=True, timeout=120)
        return proc.returncode, proc.stdout

    def undecided(self, k: int, answer) -> bool:
        return answer[0] == V.BUDGET_EXHAUSTED

    def verify(self, answers: dict) -> dict[int, str]:
        from bdm import textio

        bad = {}
        for k, (code, out) in answers.items():
            reason = V.check_command(textio, self.ops[k], code, out)
            if reason:
                bad[k] = reason
        return bad

    def plant(self, answers: dict) -> dict[int, object]:
        """Swap the realizers of the first two triples of a stage."""
        k = next((k for k in answers if self.ops[k]["check"] == "stages"), None)
        if k is None:
            return {}
        code, out = answers[k]
        lines = out.decode().split("\n")
        a, b = [j for j, line in enumerate(lines) if line.startswith("realized ")][:2]
        (ta, ea), (tb, eb) = lines[a].split(" -> "), lines[b].split(" -> ")
        lines[a], lines[b] = f"{ta} -> {eb}", f"{tb} -> {ea}"
        return {k: (code, "\n".join(lines).encode())}


def timed_loop(wl, seconds: float, passes: int | None = None, between=lambda: None):
    """Closed loop with one client.  In-process workloads stop at the first
    op that ends after the deadline; the cli runs a fixed number of whole
    passes.  `between` runs after each op, outside its latency.  Returns
    per-execution (op, latency) pairs, the wall time, each op's answer, and
    the ops whose answer changed between passes."""
    n = len(wl.ops)
    lat: list[tuple[int, float]] = []
    answers: dict = {}
    changed: set[int] = set()
    perf = time.perf_counter
    start = perf()
    deadline = start + seconds
    i = 0
    while True:
        k = i % n
        t0 = perf()
        try:
            answer = wl.run_op(k)
        except Exception as e:  # a crashed op counts as failed; the loop goes on
            answer = OpError(f"{type(e).__name__}: {e}")
        t1 = perf()
        lat.append((k, t1 - t0))
        if k in answers:
            if answers[k] != answer:
                changed.add(k)
        else:
            answers[k] = answer
        i += 1
        between()
        if passes is None:
            if t1 >= deadline:
                break
        elif i == passes * n:
            break
    return lat, perf() - start, answers, changed
