"""Seeded input generators for the benchmark workloads.

Every generator takes an explicit random.Random, so one workload seed
fixes every input. Nothing here imports indkernel: the program sees
only the rule files and JSON documents written from these values.

Rule systems are (names, rules) with rules as (premises, conclusion)
tuples of element names, the form check.py reads.
"""

from __future__ import annotations

from itertools import product
from random import Random


def random_system(rng: Random, n: int, rule_count: int, max_premises: int = 3):
    """n elements and rule_count distinct rules with 0..max_premises premises.

    The last n // 20 elements form an island: every rule concluding an
    island element has an island premise, so a seed outside the island
    never reaches it and goals there are unprovable.
    """
    names = tuple(f"v{i}" for i in range(n))
    island = n - max(1, n // 20)
    seen: set = set()
    rules = []
    while len(rules) < rule_count:
        premises = set(rng.sample(range(n), rng.randint(0, max_premises)))
        conclusion = rng.randrange(n)
        if conclusion >= island and not any(p >= island for p in premises):
            if premises:
                premises.discard(max(premises))
            premises.add(rng.randrange(island, n))
        key = (frozenset(premises), conclusion)
        if key in seen:
            continue
        seen.add(key)
        rules.append((tuple(names[i] for i in sorted(premises)), names[conclusion]))
    return names, tuple(rules)


def island(names) -> tuple[str, ...]:
    return names[len(names) - max(1, len(names) // 20):]


def random_seed(rng: Random, names, share: float = 0.02) -> tuple[str, ...]:
    """A seed of about share * n elements, none from the island."""
    mainland = names[: len(names) - len(island(names))]
    picked = rng.sample(range(len(mainland)), max(1, int(len(names) * share)))
    return tuple(mainland[i] for i in sorted(picked))


def chain(n: int):
    """c0 -> c1 -> ... -> c{n-1}: stage k adds exactly one element."""
    names = tuple(f"c{i}" for i in range(n))
    return names, tuple(((names[i],), names[i + 1]) for i in range(n - 1))


def ladder(levels: int):
    """Rungs x_j, y_j; both x_{j+1} and y_{j+1} are derived from {x_j, y_j}.

    A proof of a top-rung element is a DAG of 2 * levels - 1 nodes that
    expands to a tree of 2 ** levels - 1 nodes.
    """
    names = tuple(n for j in range(levels) for n in (f"x{j}", f"y{j}"))
    rules = []
    for j in range(levels - 1):
        rules.append(((f"x{j}", f"y{j}"), f"x{j + 1}"))
        rules.append(((f"x{j}", f"y{j}"), f"y{j + 1}"))
    return names, tuple(rules)


def rule_file(names, rules, seed, goal: str | None = None) -> str:
    lines = ["set " + " ".join(names)]
    lines.extend(("rule " + " ".join(p)).rstrip() + " -> " + c for p, c in rules)
    lines.append(("seed " + " ".join(seed)).rstrip())
    if goal is not None:
        lines.append("goal " + goal)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- squares


def square_doc(na: int, f_table, p_table, pairs) -> dict:
    """A commuting square: f: B -> A, p: C -> A, and one d per (b, c) in pairs."""
    A = [f"a{i}" for i in range(na)]
    B = [f"b{i}" for i in range(len(f_table))]
    C = [f"c{i}" for i in range(len(p_table))]
    D = [f"d{i}" for i in range(len(pairs))]
    return {
        "kind": "square",
        "carriers": {"A": A, "B": B, "C": C, "D": D},
        "maps": {
            "f": {B[i]: A[a] for i, a in enumerate(f_table)},
            "p": {C[i]: A[a] for i, a in enumerate(p_table)},
            "g": {D[i]: C[c] for i, (_, c) in enumerate(pairs)},
            "q": {D[i]: B[b] for i, (b, _) in enumerate(pairs)},
        },
    }


def _small_square_space(max_size: int):
    """Every commuting square with carriers of at most max_size elements,
    as (na, f_table, p_table, pairs): the space indkernel.gen.all_squares
    enumerates (74112 squares at max_size 3)."""
    sizes = range(max_size + 1)
    for na, nb, nc in product(sizes, sizes, sizes):
        if na == 0 and (nb or nc):
            continue
        for f_table in product(range(na), repeat=nb):
            for p_table in product(range(na), repeat=nc):
                matched = [
                    (b, c)
                    for b in range(nb)
                    for c in range(nc)
                    if f_table[b] == p_table[c]
                ]
                for nd in sizes:
                    if nd and not matched:
                        break
                    for combo in product(matched, repeat=nd):
                        yield na, f_table, p_table, combo


def sample_small_squares(rng: Random, count: int, max_size: int = 3) -> list[dict]:
    space = list(_small_square_space(max_size))
    return [square_doc(*space[i]) for i in rng.sample(range(len(space)), count)]


def random_square(rng: Random, max_size: int = 8) -> dict:
    """A random commuting square; covering and collection may each hold or fail."""
    na = rng.randint(1, max_size)
    f_table = [rng.randrange(na) for _ in range(rng.randint(0, max_size))]
    p_table = [rng.randrange(na) for _ in range(rng.randint(0, max_size))]
    matched = [
        (b, c)
        for b in range(len(f_table))
        for c in range(len(p_table))
        if f_table[b] == p_table[c]
    ]
    nd = min(len(matched), rng.randint(0, max_size)) if matched else 0
    pairs = rng.sample(matched, nd)
    return square_doc(na, f_table, p_table, pairs)


def surjection_family(rng: Random, base: int, members: int) -> dict:
    """members random surjections onto x0..x{base-1}, each with up to 3 spare elements."""
    xs = [f"x{i}" for i in range(base)]
    out = []
    for m in range(members):
        table = list(range(base)) + [rng.randrange(base) for _ in range(rng.randint(0, 3))]
        rng.shuffle(table)
        domain = [f"y{m}_{i}" for i in range(len(table))]
        out.append({"domain": domain, "map": {d: xs[t] for d, t in zip(domain, table)}})
    return {"kind": "surjection-family", "base": xs, "members": out}


def carrier_family(base: int) -> dict:
    """One carrier of each size 1..base, smallest first. The checker's
    search cost depends on this order, so it is fixed, not seeded."""
    return {"kind": "carrier-family", "carriers": [[f"z{i}" for i in range(k)] for k in range(1, base + 1)]}
