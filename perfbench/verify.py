"""Independent checks of the answers, run outside the timed region.

Types are recomputed here from the defining products u.~u, u.u* and u'.~u
on atom bitmasks, the way the oracle's element scan does, and never through
`triple_of_element`.  Each check returns None when the answer is right and a
short reason when it is wrong.
"""

from __future__ import annotations

import json

import inputs as I

# The README's exit code for an exhausted resource budget, for any command.
BUDGET_EXHAUSTED = 3


def set_mask(atoms) -> int:
    mask = 0
    for i in atoms:
        mask |= 1 << (i - 1)
    return mask


def sigma_mask(sigma, mask: int) -> int:
    out = 0
    i = 0
    while mask:
        if mask & 1:
            out |= 1 << (sigma[i] - 1)
        mask >>= 1
        i += 1
    return out


def element_type(sigma, cells, u: int) -> tuple[int, int, int]:
    """(I1, I2, I3) as source-atom bitmasks: source atom i is in Ik when its
    cell misses the k-th product of u."""
    full = (1 << len(sigma)) - 1
    su = sigma_mask(sigma, u)
    products = (u & ~su & full, u & su, ~u & ~su & full)
    out = []
    for product in products:
        bits = 0
        for i, cell in enumerate(cells):
            if not cell & product:
                bits |= 1 << i
        out.append(bits)
    return tuple(out)


def is_consistent(sigma, triple_masks) -> bool:
    i1, i2, i3 = triple_masks
    if sigma_mask(sigma, i2) != i2 or sigma_mask(sigma, i3) != i3:
        return False
    core = i1 & i2 & i3
    return not core & sigma_mask(sigma, core)


def consistent_count(sigma) -> int:
    fixed = sum(1 for i, s in enumerate(sigma, start=1) if s == i)
    return 7**fixed * 15 ** ((len(sigma) - fixed) // 2)


def trivial_atoms(sigma, triple_masks):
    """Scan every atom set I for the type of the base element I."""
    n = len(sigma)
    full = (1 << n) - 1
    i1, i2, i3 = triple_masks
    for cand in range(1 << n):
        sc = sigma_mask(sigma, cand)
        if i1 == (full & ~cand) | sc and i2 == full & ~(cand & sc) and i3 == cand | sc:
            return cand
    return None


def triple_masks(triple) -> tuple[int, int, int]:
    return tuple(set_mask(s) for s in triple)


# ---------------------------------------------------------------------------
# back-and-forth


def blocks_over(sigma, cells, v: int) -> list[int]:
    """Atoms of the subalgebra generated by the base and v, as bitmasks of
    target atoms ordered by least atom: the nonempty meets of a cell with v
    or its complement and with v* or its complement."""
    full = (1 << len(sigma)) - 1
    sv = sigma_mask(sigma, v)
    out = []
    for cell in cells:
        for a in (v, full & ~v):
            for b in (sv, full & ~sv):
                block = cell & a & b
                if block:
                    out.append(block)
    out.sort(key=lambda b: b & -b)
    return out


def _sub_structure(sigma, cells, v):
    blocks = blocks_over(sigma, cells, v)
    index = {b: k for k, b in enumerate(blocks, start=1)}
    sub_sigma = [index[sigma_mask(sigma, b)] for b in blocks]
    sub_cells = [{index[b] for b in blocks if b & cell} for cell in cells]
    return sub_sigma, sub_cells


def check_match(op, stage_sigma, stage_cells, result) -> str | None:
    """u must have v's type over the base, and iso must be an atom bijection
    between the two generated subalgebras that commutes with star and maps
    each base cell onto its counterpart."""
    _, (_, vsigma), vcells = op["ref"]
    vcells = [set_mask(c) for c in vcells]
    u, iso = result
    if element_type(stage_sigma, stage_cells, u) != element_type(vsigma, vcells, op["v"]):
        return "u and v have different types over the base"
    s1, c1 = _sub_structure(vsigma, vcells, op["v"])
    s2, c2 = _sub_structure(stage_sigma, stage_cells, u)
    size = len(s1)
    if sorted(iso) != list(range(1, size + 1)) or len(s2) != size:
        return "iso is not a bijection"
    for q in range(1, size + 1):
        if iso[s1[q - 1] - 1] != s2[iso[q - 1] - 1]:
            return "iso does not commute with star"
    for a, b in zip(c1, c2):
        if {iso[q - 1] for q in a} != b:
            return "iso does not map a base cell onto its counterpart"
    return None


# ---------------------------------------------------------------------------
# cli


def _parse_witness_lines(textio, lines, base_n):
    """The extension algebra, the base cells as masks and the lines after
    them, from a witness, realizer or stage dump."""
    alg = textio.parse_algebra("\n".join(lines[:2]))
    cells = []
    for k in range(base_n):
        key, _, value = lines[2 + k].partition(": ")
        if key != f"cell {k + 1}":
            raise ValueError(f"expected cell {k + 1}, got {lines[2 + k]!r}")
        cells.append(textio.parse_element(value, alg).mask)
    return alg, cells, lines[2 + base_n:]


def _check_stages(textio, base, text: str, depth: int) -> str | None:
    blocks = text.split("stage ")[1:]
    if len(blocks) != depth:
        return f"{len(blocks)} stages, expected {depth}"
    current = textio.parse_algebra(I.algebra_text(base))
    for k, block in enumerate(blocks, start=1):
        lines = block.splitlines()
        if lines[0] != str(k):
            return f"stage header {lines[0]!r}"
        realized = [ln for ln in lines[1:] if ln.startswith("realized ")]
        rest = lines[1 + len(realized):]
        alg, cells, tail = _parse_witness_lines(textio, rest, current.n)
        if tail:
            return "trailing lines after a stage"
        seen = set()
        for line in realized:
            triple_text, element_text = line[len("realized "):].split(" -> ")
            t = textio.parse_triple(triple_text, current)
            masks = triple_masks(t.sets())
            u = textio.parse_element(element_text, alg).mask
            if not is_consistent(current.sigma, masks):
                return f"stage {k} realizes an inconsistent triple"
            if element_type(alg.sigma, cells, u) != masks:
                return f"stage {k}: {element_text} does not realize {triple_text}"
            seen.add(masks)
        if len(seen) != len(realized) or len(seen) != consistent_count(current.sigma):
            return f"stage {k} does not realize every consistent triple once"
        current = alg
    return None


def check_command(textio, cmd, code: int, out: bytes) -> str | None:
    if code == BUDGET_EXHAUSTED:
        return None
    try:
        return _check(textio, cmd, cmd["check"], code, out.decode())
    except (ValueError, IndexError) as e:  # output that does not parse
        return f"output does not parse: {e}"


def _expect(code, text, want_code, want_text=None):
    if code != want_code:
        return f"exit {code}, expected {want_code}"
    if want_text is not None and text != want_text:
        return f"stdout {text!r}, expected {want_text!r}"
    return None


def _check(textio, cmd, kind, code, text):
    if kind == "algebra":
        alg = cmd["alg"]
        return _expect(code, text, 0, I.algebra_text(alg))
    if kind == "verdict":
        want = cmd["expect"]
        return _expect(code, text, 0 if want else 1, "true\n" if want else "false\n")
    if kind == "equiv":
        if cmd["valid"]:
            return _expect(code, text, 0, "valid\n")
        return _expect(code, text[:8], 1, "invalid:")
    sigma = cmd["alg"][1]
    masks = triple_masks(cmd.get("triple", ((), (), ())))
    ok = is_consistent(sigma, masks)
    if kind == "consistent":
        return _expect(code, text, 0 if ok else 1, "true\n" if ok else "false\n")
    if kind == "trivial":
        atoms = trivial_atoms(sigma, masks)
        want = {"trivial": atoms is not None}
        if atoms is not None:
            listed = [i + 1 for i in range(len(sigma)) if atoms >> i & 1]
            want |= {"I": listed, "realizer": listed}
        if json.loads(text) != want:
            return f"stdout {text!r}, expected {want}"
        return _expect(code, text, 0 if atoms is not None else 1)
    if kind == "stages":
        bad = _expect(code, text, 0)
        return bad or _check_stages(textio, cmd["alg"], text, cmd["depth"])
    if kind in ("witness", "realize"):
        if not ok:
            return _expect(code, text, 1)
        bad = _expect(code, text, 0)
        if bad:
            return bad
        lines = text.splitlines()
        alg, cells, tail = _parse_witness_lines(textio, lines, len(sigma))
        elements = [textio.parse_element(ln.split(" ", 1)[1], alg).mask for ln in tail
                    if ln.startswith("element ")]
        if len(elements) != len(tail) or len(elements) != cmd.get("count", 1):
            return f"{len(elements)} elements, expected {cmd.get('count', 1)}"
        if len(set(elements)) != len(elements):
            return "realizers are not distinct"
        for u in elements:
            if element_type(alg.sigma, cells, u) != masks:
                return f"an element does not realize {I.format_triple(cmd['triple'])}"
        return None
    raise KeyError(kind)
