"""Independent checks on the outputs of the benchmark workloads.

Every expected value here is computed by this file or by networkx, never
taken from an earlier run of eilab.  Each checker returns a list of
problems (empty when the output is correct), so a run can report all of
them at once.  A graph is anything with ``.n`` and ``.edges``.
"""

from __future__ import annotations

import warnings

import networkx as nx

# networkx 3.5 changed its Weisfeiler-Lehman hashes and says so on every call;
# the hashes here only bucket graphs within one run.
warnings.filterwarnings("ignore", message="The hashes produced for graphs", category=UserWarning)

# OEIS A001349: connected graphs on n unlabeled vertices, n = 1..7.
A001349 = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}


def union_count(counts: dict[int, int], total_cap: int) -> int:
    """Unordered pairs (repeats allowed) of connected graphs with at most
    ``total_cap`` vertices together, from the per-size counts alone."""
    sizes = sorted(counts)
    out = 0
    for i, a in enumerate(sizes):
        for b in sizes[i:]:
            if a + b > total_cap:
                continue
            out += counts[a] * (counts[a] + 1) // 2 if a == b else counts[a] * counts[b]
    return out


def _nx_graph(g) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


def check_corpus(graphs, max_n: int) -> list[str]:
    """Per-size counts against A001349, and the corpus equal up to
    isomorphism to the connected graphs of the networkx graph atlas."""
    problems = []
    by_n: dict[int, list] = {}
    for g in graphs:
        by_n.setdefault(g.n, []).append(g)
    for n in range(1, max_n + 1):
        got = len(by_n.get(n, []))
        if got != A001349[n]:
            problems.append(f"corpus has {got} graphs on {n} vertices, A001349 says {A001349[n]}")
    atlas: dict[tuple, list[nx.Graph]] = {}
    for h in nx.graph_atlas_g():
        if 1 <= h.number_of_nodes() <= max_n and nx.is_connected(h):
            atlas.setdefault(_iso_bucket(h), []).append(h)
    for g in graphs:
        h = _nx_graph(g)
        if not nx.is_connected(h):
            problems.append(f"corpus graph {sorted(g.edges)} on {g.n} vertices is disconnected")
            continue
        bucket = atlas.get(_iso_bucket(h), [])
        for i, a in enumerate(bucket):
            if nx.is_isomorphic(h, a):
                del bucket[i]
                break
        else:
            problems.append(f"corpus graph {sorted(g.edges)} on {g.n} vertices is a repeat or not in the atlas")
    missing = sum(len(b) for b in atlas.values())
    if missing:
        problems.append(f"{missing} connected atlas graphs have no isomorphic corpus graph")
    return problems


def _iso_bucket(h: nx.Graph) -> tuple:
    return (
        h.number_of_nodes(),
        h.number_of_edges(),
        tuple(sorted(d for _, d in h.degree())),
        nx.weisfeiler_lehman_graph_hash(h),
    )


def check_reports(reports, expected: list[tuple[str, int]]) -> list[str]:
    """Each sweep report, in order, names the expected property, checked the
    expected number of graphs, found no violation and skipped nothing."""
    problems = []
    got = [(r.property_name, r.checked) for r in reports]
    if got != expected:
        problems.append(f"sweep reports {got}, expected {expected}")
    for r in reports:
        if r.violations:
            problems.append(f"{r.property_name}: {len(r.violations)} violations, first {r.violations[0]}")
        if r.skips:
            problems.append(f"{r.property_name}: {len(r.skips)} skips, first {r.skips[0]}")
    return problems


def independence_polynomial(g) -> list[int]:
    """Counts of independent vertex sets by size (the empty set included)."""
    adj = [0] * g.n
    for u, v in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    counts = [0] * (g.n + 1)
    # Grow independent sets one vertex at a time, largest vertex last.
    stack = [(0, 0, 0)]  # (set mask, size, next vertex)
    while stack:
        mask, size, nxt = stack.pop()
        counts[size] += 1
        for v in range(nxt, g.n):
            if not adj[v] & mask:
                stack.append((mask | 1 << v, size + 1, v + 1))
    return counts


def k_polynomial(g) -> list[int]:
    """Coefficients of sum over independent F of t^|F| (1-t)^(n-|F|)."""
    out = [0] * (g.n + 1)
    for size, count in enumerate(independence_polynomial(g)):
        if not count:
            continue
        rest = g.n - size
        for k in range(rest + 1):
            binom = 1
            for i in range(k):
                binom = binom * (rest - i) // (i + 1)
            out[size + k] += count * binom * (-1) ** k
    return out


def check_betti(g, table: dict[tuple[int, int], int], k_poly: list[int] | None = None) -> list[str]:
    """The table's alternating sums equal the K-polynomial of the
    Stanley-Reisner ring, and beta_{1,2} equals the edge count."""
    problems = []
    k_poly = k_poly if k_poly is not None else k_polynomial(g)
    lhs = [0] * max(len(k_poly), max(j for _, j in table) + 1)
    for (i, j), b in table.items():
        lhs[j] += (-1) ** i * b
    rhs = k_poly + [0] * (len(lhs) - len(k_poly))
    if lhs != rhs:
        problems.append(f"Betti alternating sums {lhs} != K-polynomial {rhs}")
    if table.get((1, 2), 0) != len(g.edges):
        problems.append(f"beta_12 = {table.get((1, 2), 0)} but the graph has {len(g.edges)} edges")
    return problems


def check_reg_matches_betti(reg: int, table: dict[tuple[int, int], int]) -> list[str]:
    """reg I(G) is one more than the largest j - i over nonzero entries."""
    expect = max(j - i for (i, j), b in table.items() if b) + 1
    return [] if reg == expect else [f"reg {reg} but the Betti table gives {expect}"]


def check_dominance(char: int, table: dict, rational: dict) -> list[str]:
    """Entrywise beta over GF(p) >= beta over Q."""
    bad = [k for k in set(table) | set(rational) if table.get(k, 0) < rational.get(k, 0)]
    return [f"char {char}: entries {sorted(bad)} below the rational Betti table"] if bad else []


def cycle_reg(n: int) -> int:
    return n // 3 + 1 + (n % 3 == 2)


def path_reg(n: int) -> int:
    return (n + 1) // 3 + 1


def check_known_reg(kind: str, n: int, reg: int) -> list[str]:
    """reg(C_n) and reg(P_n) from their closed forms."""
    expect = {"cycle": cycle_reg, "path": path_reg}[kind](n)
    return [] if reg == expect else [f"reg of the {kind} on {n} vertices is {reg}, expected {expect}"]


def check_interval(lo: int, hi: int, reg: int) -> list[str]:
    return [] if lo <= reg <= hi else [f"bounds [{lo}, {hi}] miss reg {reg}"]


def check_matching_number(g, nu: int) -> list[str]:
    expect = len(nx.max_weight_matching(_nx_graph(g), maxcardinality=True))
    return [] if nu == expect else [f"nu = {nu} on {sorted(g.edges)}, networkx finds {expect}"]


def check_cover(g, parts) -> list[str]:
    """The parts cover E(g) with edges of g only, and the complement of each
    part, taken on the vertices the part touches, is chordal."""
    problems = []
    edges = {tuple(sorted(e)) for e in g.edges}
    covered = set()
    for part in parts:
        part_edges = {tuple(sorted(e)) for e in part}
        if not part_edges <= edges:
            problems.append(f"cover part {sorted(part_edges)} has non-edges")
        covered |= part_edges
        h = nx.Graph(list(part_edges))
        if not nx.is_chordal(nx.complement(h)):
            problems.append(f"cover part {sorted(part_edges)} is not co-chordal")
    if covered != edges:
        problems.append(f"cover misses edges {sorted(edges - covered)}")
    return problems

