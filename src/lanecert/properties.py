"""Composable graph-property state machines over k-lane fragments.

Each property is evaluated bottom-up over a hierarchical decomposition (the
fold itself is ``certify._recompute_sub``, shared by prover and verifier).  A
fragment is summarized by a small class: a set of terminal "atoms" (one or
two per lane, depending on whether the lane's in- and out-terminal coincide)
plus property-specific state over those atoms.  Classes compose under the
two merge operations, so the class of the whole graph is computed without
ever looking at a fragment's interior.

Every plugin also comes in a "marked" variant that evaluates the property on
the subgraph formed by edges with a nonzero tag.
"""

from dataclasses import dataclass
from typing import Dict, List, Tuple

from .graph import Graph


class PropertyError(Exception):
    pass


Atom = Tuple[int, int]  # (lane, role); role 0 = in==out, 1 = in, 2 = out


@dataclass(frozen=True)
class HomClass:
    """Canonical fragment summary: terminal atoms plus property state."""

    atoms: Tuple[Atom, ...]
    term: object

    def lanes(self):
        return frozenset(l for l, _ in self.atoms)


def check_atoms(atoms) -> None:
    if not isinstance(atoms, tuple) or tuple(sorted(set(atoms))) != atoms:
        raise PropertyError("atoms must be a sorted duplicate-free tuple")
    roles: Dict[int, set] = {}
    for a in atoms:
        if (
            not isinstance(a, tuple)
            or len(a) != 2
            or not isinstance(a[0], int)
            or not isinstance(a[1], int)
            or a[0] < 1
        ):
            raise PropertyError("malformed atom %r" % (a,))
        roles.setdefault(a[0], set()).add(a[1])
    if not roles:
        raise PropertyError("empty atom set")
    for lane, rs in roles.items():
        if rs not in ({0}, {1, 2}):
            raise PropertyError("lane %d has bad role set %r" % (lane, rs))


# --- per-property state algebras --------------------------------------------
#
# States are manipulated with atom labels (arbitrary hashables) and frozen to
# canonical index-based terms at class boundaries.  The shared primitives:
#   single(a)          one fresh vertex, terminal atom a
#   join(s, t)         disjoint union
#   edge(s, a, b)      add a relevant edge between the vertices of a and b
#   identify(s, a, b)  a and b are the same vertex; b's label disappears
#   forget(s, a)       the vertex of a stops being a terminal
#   rename(s, m)       relabel atoms through the total map m
#   canon / from_term  convert to/from an index-based canonical term
#   accepts(s)         property holds for the fragment as a whole graph


class _ParityAlg:
    """Vertex-count parity (accepts even order)."""

    def single(self, a):
        return 1

    def join(self, s, t):
        return (s + t) % 2

    def edge(self, s, a, b):
        return s

    def identify(self, s, a, b):
        return (s + 1) % 2

    def forget(self, s, a):
        return s

    def rename(self, s, m):
        return s

    def canon(self, s, order):
        return s

    def from_term(self, term, atoms):
        if term not in (0, 1):
            raise PropertyError("parity term must be 0 or 1")
        return term

    def accepts(self, s):
        return s == 0


class _BipartiteAlg:
    """Proper 2-colorings; state = set of terminal colorings (swap-closed)."""

    def single(self, a):
        return frozenset({frozenset(), frozenset({a})})

    def join(self, s, t):
        return frozenset(p | q for p in s for q in t)

    def edge(self, s, a, b):
        return frozenset(p for p in s if (a in p) != (b in p))

    def identify(self, s, a, b):
        return frozenset(p - {b} for p in s if (a in p) == (b in p))

    def forget(self, s, a):
        return frozenset(p - {a} for p in s)

    def rename(self, s, m):
        return frozenset(frozenset(m[a] for a in p) for p in s)

    def canon(self, s, order):
        idx = {a: i for i, a in enumerate(order)}
        return tuple(sorted(tuple(sorted(idx[a] for a in p)) for p in s))

    def from_term(self, term, atoms):
        return frozenset(_indexed_sets(term, atoms))

    def accepts(self, s):
        return bool(s)


class _ForestAlg:
    """Acyclicity; state = terminal connectivity partition, or None if a
    cycle has been closed."""

    def single(self, a):
        return frozenset({frozenset({a})})

    def join(self, s, t):
        if s is None or t is None:
            return None
        return s | t

    def _merge(self, s, a, b, drop):
        if s is None:
            return None
        ba = next((p for p in s if a in p), None)
        bb = next((p for p in s if b in p), None)
        if ba is None or bb is None:
            raise PropertyError("atom missing from connectivity partition")
        if ba is bb:
            return None
        merged = (ba | bb) - drop
        return frozenset(p for p in s if p is not ba and p is not bb) | {merged}

    def edge(self, s, a, b):
        return self._merge(s, a, b, frozenset())

    def identify(self, s, a, b):
        return self._merge(s, a, b, frozenset({b}))

    def forget(self, s, a):
        if s is None:
            return None
        out = set()
        for p in s:
            p = p - {a}
            if p:
                out.add(p)
        return frozenset(out)

    def rename(self, s, m):
        if s is None:
            return None
        return frozenset(frozenset(m[a] for a in p) for p in s)

    def canon(self, s, order):
        if s is None:
            return 0
        idx = {a: i for i, a in enumerate(order)}
        return tuple(sorted(tuple(sorted(idx[a] for a in p)) for p in s))

    def from_term(self, term, atoms):
        if term == 0:
            return None
        blocks = _indexed_sets(term, atoms)
        total = [a for p in blocks for a in p]
        if sorted(total) != sorted(atoms) or any(not p for p in blocks):
            raise PropertyError("blocks must partition the atom set")
        return frozenset(blocks)

    def accepts(self, s):
        return s is not None


class _MatchingAlg:
    """Perfect-matching existence; state = achievable sets of exposed
    (still unmatched) terminal atoms."""

    def single(self, a):
        return frozenset({frozenset({a})})

    def join(self, s, t):
        return frozenset(p | q for p in s for q in t)

    def edge(self, s, a, b):
        extra = frozenset(p - {a, b} for p in s if a in p and b in p)
        return s | extra

    def identify(self, s, a, b):
        out = set()
        for p in s:
            if a in p and b in p:
                out.add(p - {b})
            elif (a in p) != (b in p):
                out.add(p - {a, b})
            # covered on both sides: the shared vertex would be matched
            # twice, so the profile dies
        return frozenset(out)

    def forget(self, s, a):
        return frozenset(p for p in s if a not in p)

    def rename(self, s, m):
        return frozenset(frozenset(m[a] for a in p) for p in s)

    def canon(self, s, order):
        idx = {a: i for i, a in enumerate(order)}
        return tuple(sorted(tuple(sorted(idx[a] for a in p)) for p in s))

    def from_term(self, term, atoms):
        return frozenset(_indexed_sets(term, atoms))

    def accepts(self, s):
        return frozenset() in s


def _indexed_sets(term, atoms) -> List[frozenset]:
    """Decode a tuple-of-index-tuples term back to atom sets, validating."""
    if not isinstance(term, tuple):
        raise PropertyError("term must be a tuple of index tuples")
    out = []
    for p in term:
        if not isinstance(p, tuple):
            raise PropertyError("term entry must be a tuple")
        if any(not isinstance(i, int) or not 0 <= i < len(atoms) for i in p):
            raise PropertyError("atom index out of range")
        if list(p) != sorted(set(p)):
            raise PropertyError("term entry must be strictly increasing")
        out.append(frozenset(atoms[i] for i in p))
    if len(set(out)) != len(out):
        raise PropertyError("duplicate term entries")
    return out


# --- the plugin wrapper ------------------------------------------------------


class PropertyPlugin:
    """A property's class space plus its leaf and composition functions."""

    def __init__(self, name: str, algebra, marked: bool):
        self.name = name
        self.marked = marked
        self._alg = algebra

    def _relevant(self, mark: int) -> bool:
        return mark != 0 if self.marked else True

    def _pack(self, state, atoms) -> HomClass:
        atoms = tuple(sorted(atoms))
        return HomClass(atoms, self._alg.canon(state, atoms))

    def _unpack(self, c: HomClass):
        check_atoms(c.atoms)
        return self._alg.from_term(c.term, c.atoms)

    # leaf classes

    def base_vleaf(self, lane: int) -> HomClass:
        a = (lane, 0)
        return self._pack(self._alg.single(a), (a,))

    def base_edge(self, lane: int, mark: int) -> HomClass:
        a, b = (lane, 1), (lane, 2)
        s = self._alg.join(self._alg.single(a), self._alg.single(b))
        if self._relevant(mark):
            s = self._alg.edge(s, a, b)
        return self._pack(s, (a, b))

    def base_path(self, w: int, marks) -> HomClass:
        if w < 1 or len(marks) != w - 1:
            raise PropertyError("path leaf needs w-1 edge marks")
        atoms = [(i, 0) for i in range(1, w + 1)]
        s = self._alg.single(atoms[0])
        for a in atoms[1:]:
            s = self._alg.join(s, self._alg.single(a))
        for pos, mark in enumerate(marks):
            if self._relevant(mark):
                s = self._alg.edge(s, atoms[pos], atoms[pos + 1])
        return self._pack(s, atoms)

    # composition

    @staticmethod
    def _role_atom(c: HomClass, lane: int, solo_role: int) -> Atom:
        a = (lane, 0)
        if a in c.atoms:
            return a
        a = (lane, solo_role)
        if a not in c.atoms:
            raise PropertyError("lane %d missing from class" % lane)
        return a

    def compose_bridge(
        self, c1: HomClass, c2: HomClass, i: int, j: int, mark: int
    ) -> HomClass:
        if c1.lanes() & c2.lanes():
            raise PropertyError("bridge composition needs disjoint lane sets")
        s1 = self._alg.rename(self._unpack(c1), {a: ("L", a) for a in c1.atoms})
        s2 = self._alg.rename(self._unpack(c2), {a: ("R", a) for a in c2.atoms})
        s = self._alg.join(s1, s2)
        if self._relevant(mark):
            s = self._alg.edge(
                s,
                ("L", self._role_atom(c1, i, 2)),
                ("R", self._role_atom(c2, j, 2)),
            )
        back = {("L", a): a for a in c1.atoms}
        back.update({("R", a): a for a in c2.atoms})
        return self._pack(self._alg.rename(s, back), c1.atoms + c2.atoms)

    def compose_parent(self, child: HomClass, parent: HomClass) -> HomClass:
        claned = child.lanes()
        planed = parent.lanes()
        if not claned <= planed:
            raise PropertyError("child lanes must be contained in parent lanes")
        s = self._alg.join(
            self._alg.rename(self._unpack(child), {a: ("C", a) for a in child.atoms}),
            self._alg.rename(self._unpack(parent), {a: ("P", a) for a in parent.atoms}),
        )
        for lane in sorted(claned):
            glue = ("P", self._role_atom(parent, lane, 2))
            s = self._alg.identify(s, glue, ("C", self._role_atom(child, lane, 1)))
        mapping: Dict[object, Atom] = {}
        drop = []
        for lane in sorted(planed):
            glue = ("P", self._role_atom(parent, lane, 2))
            if lane not in claned:
                if (lane, 0) in parent.atoms:
                    mapping[glue] = (lane, 0)
                else:
                    mapping[("P", (lane, 1))] = (lane, 1)
                    mapping[glue] = (lane, 2)
                continue
            p_io = (lane, 0) in parent.atoms
            c_io = (lane, 0) in child.atoms
            if p_io and c_io:
                mapping[glue] = (lane, 0)
            elif p_io:
                mapping[glue] = (lane, 1)
                mapping[("C", (lane, 2))] = (lane, 2)
            elif c_io:
                mapping[("P", (lane, 1))] = (lane, 1)
                mapping[glue] = (lane, 2)
            else:
                mapping[("P", (lane, 1))] = (lane, 1)
                mapping[("C", (lane, 2))] = (lane, 2)
                drop.append(glue)
        for a in drop:
            s = self._alg.forget(s, a)
        return self._pack(self._alg.rename(s, mapping), mapping.values())

    def accepts(self, c: HomClass) -> bool:
        return self._alg.accepts(self._unpack(c))


_BASE_ALGEBRAS = {
    "parity": _ParityAlg,
    "bipartite": _BipartiteAlg,
    "acyclic": _ForestAlg,
    "matching": _MatchingAlg,
}


# Plugins are stateless, so one instance per property serves every caller.
# The fold's memo belongs to one run (see certify._fold), never to a plugin.
PLUGINS: Dict[str, PropertyPlugin] = {
    prefix + name: PropertyPlugin(prefix + name, alg(), bool(prefix))
    for name, alg in _BASE_ALGEBRAS.items()
    for prefix in ("", "marked-")
}


def get_plugin(name: str) -> PropertyPlugin:
    plugin = PLUGINS.get(name)
    if plugin is None:
        raise PropertyError(
            "unknown property %r (available: %s)" % (name, ", ".join(sorted(PLUGINS)))
        )
    return plugin


# --- brute-force oracles -----------------------------------------------------


def _relevant_edges(g: Graph, marked: bool):
    if not marked:
        return list(g.edges)
    return [e for e in g.edges if g.edge_tag(*e) != 0]


def _bf_bipartite(n, edges) -> bool:
    color = {}
    adj: Dict[int, List[int]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    for start in range(n):
        if start in color or start not in adj:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            u = queue.pop()
            for w in adj[u]:
                if w not in color:
                    color[w] = color[u] ^ 1
                    queue.append(w)
                elif color[w] == color[u]:
                    return False
    return True


def _bf_acyclic(n, edges) -> bool:
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def _bf_matching(n, edges) -> bool:
    if n % 2:
        return False
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)

    def solve(free):
        if not free:
            return True
        v = min(free)
        rest = free - {v}
        for w in adj[v] & rest:
            if solve(rest - {w}):
                return True
        return False

    return solve(frozenset(range(n)))


def brute_force_property(g: Graph, name: str, limit: int = 10) -> bool:
    """Independent exhaustive-style oracle for the built-in properties."""
    if g.n > limit:
        raise PropertyError("brute force limited to %d vertices" % limit)
    marked = name.startswith("marked-")
    base = name[len("marked-"):] if marked else name
    if base not in _BASE_ALGEBRAS:
        raise PropertyError("unknown property %r" % name)
    edges = _relevant_edges(g, marked)
    if base == "parity":
        return g.n % 2 == 0
    if base == "bipartite":
        return _bf_bipartite(g.n, edges)
    if base == "acyclic":
        return _bf_acyclic(g.n, edges)
    return _bf_matching(g.n, edges)
