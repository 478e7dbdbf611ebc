"""Composable graph-property state machines over k-lane fragments.

Each property is evaluated bottom-up over a hierarchical decomposition (the
fold itself is ``certify._recompute_sub``, shared by prover and verifier).  A
fragment is summarized by a small class: a set of terminal "atoms" (one or
two per lane, depending on whether the lane's in- and out-terminal coincide)
plus property-specific state over those atoms.  Classes compose under the
two merge operations, so the class of the whole graph is computed without
ever looking at a fragment's interior.  Both merges glue two fragments in
one step (``_Glue``): atoms become vertices of the union, glued atoms share
a vertex, and glued vertices that stop being terminals are forgotten.

The states are the standard path-decomposition DP states.  Parity, acyclic
and bipartite states are O(atoms): the order mod 2, the connected parts of
the atoms, and the parts with each atom's colour relative to its part.
Matching's state, the family of exposed-atom sets, can reach 2^atoms sets,
the f(k)-dependent constant the paper allows; the sets are int bitmasks and
a glue combines only the sets that agree on the glued atoms.

A class's wire term (``encoding.Term``) is an int or a flat tuple of ints,
one canonical term per state:
- parity: the order mod 2;
- acyclic: rep(i) per atom i, the lowest atom of i's part, or the int 0
  once a cycle closes;
- bipartite: 2 * rep(i) + i's colour relative to rep(i) per atom, or the
  int 0 once an odd cycle closes;
- matching: the exposed-set bitmasks, sorted.

A plugin counts only the edges whose mark is nonzero.  Certification marks
every real edge for a property, and only the edges with a nonzero tag for its
``marked-`` variant (``certify.resolve_property``), so one plugin serves both.
"""

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple

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
# A state lives on the atoms of its class in their sorted order: atom i is
# index i.  Every algebra has
#   leaf(n, edges)      n distinct vertices (atoms 0..n-1) and the relevant
#                       edges among them, as index pairs
#   glue(s1, s2, plan)  two fragments glued by a _Glue plan: the atoms that
#                       the plan maps to one vertex are identified, its edge
#                       (if any) is added, and the vertices that stop being
#                       terminals are forgotten
#   canon(s, n)         the canonical wire term of a state over n atoms
#   from_term(t, n)     the state of a wire term, validated
#   accepts(s)          property holds for the fragment as a whole graph
# The states of bipartite and acyclic are their canonical terms; parity's is
# its term; matching's is a frozenset of int bitmasks.


class _Glue(NamedTuple):
    """How two fragments (side 1 and side 2) are glued.  Vertices of the
    union are numbered 0..total-1; the first n_out are the result's atoms in
    sorted order, the rest stop being terminals.  map1[i] and map2[i] are
    the vertices of the sides' atoms; pairs lists the (side-1, side-2) atom
    index pairs mapped to one vertex; edge is None or a (side-1, side-2)
    atom index pair joined by a relevant edge."""

    n_out: int
    total: int
    map1: Tuple[int, ...]
    map2: Tuple[int, ...]
    pairs: Tuple[Tuple[int, int], ...]
    edge: Optional[Tuple[int, int]]


class _ParityAlg:
    """Vertex-count parity (accepts even order); state = order mod 2."""

    def leaf(self, n, edges):
        return n % 2

    def glue(self, s1, s2, plan):
        # Each identified pair is one vertex counted twice.
        return (s1 + s2 + len(plan.pairs)) % 2

    def canon(self, s, n):
        return s

    def from_term(self, term, n):
        if term not in (0, 1):
            raise PropertyError("parity term must be 0 or 1")
        return term

    def accepts(self, s):
        return s == 0


class _Parts:
    """Union-find over vertices 0..n-1 that keeps each vertex's colour
    relative to its part's root."""

    def __init__(self, n):
        self.up = list(range(n))
        self.rel = [0] * n

    def find(self, x):
        p = 0
        while self.up[x] != x:
            p ^= self.rel[x]
            x = self.up[x]
        return x, p

    def join(self, u, v, p):
        """Join the parts of u and v so that colour(u) ^ colour(v) == p;
        False, and no change, if they are one part already."""
        (ru, pu), (rv, pv) = self.find(u), self.find(v)
        if ru == rv:
            return False
        self.up[ru] = rv
        self.rel[ru] = pu ^ pv ^ p
        return True


class _PartitionAlg:
    """The two properties whose state is a partition of the terminals into
    connected parts, or None once the property fails.  For bipartite, a
    fragment's 2-colourings restricted to its terminals fix one colouring
    per part up to a swap, so each atom also keeps its colour relative to
    its part.  The term is the flat tuple of one entry per atom i: rep(i),
    the lowest atom index in i's part, and for bipartite one more low bit,
    i's colour relative to rep(i); the int 0 stands for None.  A link (u, v, p) puts u and v in one part
    with colour(u) ^ colour(v) == p; an edge is the link p = 1.  Acyclic
    fails on any link inside one part (a cycle), bipartite on one whose
    colours disagree (an odd cycle)."""

    def __init__(self, coloured: bool):
        self.bit = int(coloured)  # the parity bits below each entry's rep

    def leaf(self, n, edges):
        return self._close(n, n, [(a, b, 1) for a, b in edges])

    def glue(self, s1, s2, plan):
        if s1 is None or s2 is None:
            return None
        m1, m2 = plan.map1, plan.map2
        links = [(m1[a], m1[b], p) for a, b, p in self._links(s1)]
        links += [(m2[a], m2[b], p) for a, b, p in self._links(s2)]
        if plan.edge is not None:
            links.append((m1[plan.edge[0]], m2[plan.edge[1]], 1))
        return self._close(plan.total, plan.n_out, links)

    def _links(self, s):
        bit = self.bit
        return [(i, e >> bit, e & bit) for i, e in enumerate(s) if e >> bit != i]

    def _close(self, total, n_out, links):
        parts = _Parts(total)
        for u, v, p in links:
            if not parts.join(u, v, p) and (
                not self.bit or parts.find(u)[1] ^ parts.find(v)[1] != p
            ):
                return None
        bit = self.bit
        reps = {}
        term = []
        for o in range(n_out):
            root, p = parts.find(o)
            rep, rp = reps.setdefault(root, (o, p))
            term.append(rep << bit | (p ^ rp) & bit)
        return tuple(term)

    def canon(self, s, n):
        return 0 if s is None else s

    def from_term(self, term, n):
        if term == 0 and isinstance(term, int):
            return None
        if not isinstance(term, tuple) or len(term) != n:
            raise PropertyError("partition term must have one entry per atom")
        bit = self.bit
        for i, e in enumerate(term):
            if not isinstance(e, int) or e < 0:
                raise PropertyError("partition term entries must be ints >= 0")
            rep = e >> bit
            # Canonical: the part's lowest atom is its rep, with parity 0.
            if rep > i or term[rep] != rep << bit:
                raise PropertyError("partition term is not canonical")
        return term

    def accepts(self, s):
        return s is not None


class _MatchingAlg:
    """Perfect-matching existence; state = the achievable sets of exposed
    (still unmatched) terminal atoms, each an int bitmask over the atom
    order (bit i for atom i).  The term is the tuple of the masks, sorted."""

    def leaf(self, n, edges):
        s = {(1 << n) - 1}
        for a, b in edges:
            _match_edge(s, (1 << a) | (1 << b))
        return frozenset(s)

    def glue(self, s1, s2, plan):
        # Group each side's sets by which glued atoms they expose, so only
        # compatible groups are combined.  A glued vertex must be covered on
        # at least one side; it stays exposed only if exposed on both, and a
        # vertex that stops being a terminal must end up covered.
        pairs = plan.pairs
        full = (1 << len(pairs)) - 1
        inner = kept = 0
        for j, (i1, _) in enumerate(pairs):
            if plan.map1[i1] >= plan.n_out:
                inner |= 1 << j
            else:
                kept |= 1 << j
        g1 = _group(s1, [i1 for i1, _ in pairs], plan.map1)
        g2 = _group(s2, [i2 for _, i2 in pairs], plan.map2)
        out: set = set()
        for k1, r1 in g1.items():
            for k2, r2 in g2.items():
                if k1 | k2 != full or k1 & k2 & inner:
                    continue
                both = k1 & k2 & kept
                extra = 0
                for j, (i1, _) in enumerate(pairs):
                    if both >> j & 1:
                        extra |= 1 << plan.map1[i1]
                for a in r1:
                    a |= extra
                    out.update([a | b for b in r2])
        if plan.edge is not None:
            i1, i2 = plan.edge
            _match_edge(out, (1 << plan.map1[i1]) | (1 << plan.map2[i2]))
        return frozenset(out)

    def canon(self, s, n):
        return tuple(sorted(s))

    def from_term(self, term, n):
        if not isinstance(term, tuple):
            raise PropertyError("matching term must be a tuple of masks")
        # Canonical: strictly increasing, as canon sorts them, so one state
        # has one term.
        prev = -1
        for m in term:
            if not isinstance(m, int) or not prev < m < 1 << n:
                raise PropertyError("matching term must be increasing masks below 2^atoms")
            prev = m
        return frozenset(term)

    def accepts(self, s):
        return 0 in s


def _match_edge(s: set, both: int) -> None:
    """Add to s the sets an edge between the two atoms in both can match."""
    s.update([m ^ both for m in s if m & both == both])


def _group(s, glued, vmap) -> Dict[int, List[int]]:
    """Split each bitmask of s into its glued atoms (bit j for glued[j]) and
    its other atoms mapped through vmap; group the latter by the former."""
    other = [i for i in range(len(vmap)) if i not in glued]
    groups: Dict[int, List[int]] = {}
    for m in s:
        key = rest = 0
        for j, i in enumerate(glued):
            if m >> i & 1:
                key |= 1 << j
        for i in other:
            if m >> i & 1:
                rest |= 1 << vmap[i]
        groups.setdefault(key, []).append(rest)
    return groups


# --- the plugin wrapper ------------------------------------------------------


class PropertyPlugin:
    """A property's class space plus its leaf and composition functions."""

    def __init__(self, name: str, algebra):
        self.name = name
        self._alg = algebra

    def _unpack(self, c: HomClass):
        check_atoms(c.atoms)
        return self._alg.from_term(c.term, len(c.atoms))

    def _leaf(self, atoms, edges) -> HomClass:
        n = len(atoms)
        return HomClass(atoms, self._alg.canon(self._alg.leaf(n, edges), n))

    # leaf classes

    def base_vleaf(self, lane: int) -> HomClass:
        return self._leaf(((lane, 0),), ())

    def base_edge(self, lane: int, mark: int) -> HomClass:
        edges = [(0, 1)] if mark else []
        return self._leaf(((lane, 1), (lane, 2)), edges)

    def base_path(self, w: int, marks) -> HomClass:
        if w < 1 or len(marks) != w - 1:
            raise PropertyError("path leaf needs w-1 edge marks")
        edges = [(p, p + 1) for p, m in enumerate(marks) if m]
        return self._leaf(tuple((i, 0) for i in range(1, w + 1)), edges)

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

    def _glue(self, c1, s1, v1, c2, s2, v2, pairs=(), edge=None) -> HomClass:
        """Glue the fragments of classes c1 and c2 (states s1, s2).  v1 and
        v2 give each atom's vertex in the union: an atom of the result, or
        (lane, 3) for a glued vertex that stops being a terminal.  pairs and
        edge name atoms, as (c1 atom, c2 atom) pairs."""
        verts = sorted({*v1.values(), *v2.values()})
        out = tuple([v for v in verts if v[1] != 3])
        at = {v: o for o, v in enumerate(out)}
        for v in verts:
            if v[1] == 3:
                at[v] = len(at)
        a1, a2 = c1.atoms, c2.atoms
        plan = _Glue(
            len(out),
            len(at),
            tuple([at[v1[a]] for a in a1]),
            tuple([at[v2[a]] for a in a2]),
            tuple([(a1.index(a), a2.index(b)) for a, b in pairs]),
            None if edge is None else (a1.index(edge[0]), a2.index(edge[1])),
        )
        return HomClass(out, self._alg.canon(self._alg.glue(s1, s2, plan), len(out)))

    def compose_bridge(
        self, c1: HomClass, c2: HomClass, i: int, j: int, mark: int
    ) -> HomClass:
        if c1.lanes() & c2.lanes():
            raise PropertyError("bridge composition needs disjoint lane sets")
        s1, s2 = self._unpack(c1), self._unpack(c2)
        edge = None
        if mark:
            edge = (self._role_atom(c1, i, 2), self._role_atom(c2, j, 2))
        same = {a: a for a in c1.atoms + c2.atoms}
        return self._glue(c1, s1, same, c2, s2, same, edge=edge)

    def compose_parent(self, child: HomClass, parent: HomClass) -> HomClass:
        if not child.lanes() <= parent.lanes():
            raise PropertyError("child lanes must be contained in parent lanes")
        sc, sp = self._unpack(child), self._unpack(parent)
        cv = {a: a for a in child.atoms}
        pv = {a: a for a in parent.atoms}
        pairs = []
        # On each child lane the parent's out-terminal is the child's
        # in-terminal.  That vertex is the glued lane's in-terminal if the
        # parent's in == out, its out-terminal if the child's in == out
        # (role 0 if both), and otherwise stops being a terminal.
        for lane in sorted(child.lanes()):
            p_io = (lane, 0) in pv
            c_io = (lane, 0) in cv
            pg = (lane, 0) if p_io else (lane, 2)
            cg = (lane, 0) if c_io else (lane, 1)
            pairs.append((cg, pg))
            role = 0 if p_io and c_io else 1 if p_io else 2 if c_io else 3
            cv[cg] = pv[pg] = (lane, role)
        return self._glue(child, sc, cv, parent, sp, pv, pairs)

    def accepts(self, c: HomClass) -> bool:
        return self._alg.accepts(self._unpack(c))


_BASE_ALGEBRAS = {
    "parity": _ParityAlg,
    "bipartite": lambda: _PartitionAlg(coloured=True),
    "acyclic": lambda: _PartitionAlg(coloured=False),
    "matching": _MatchingAlg,
}


# Plugins are stateless, so one instance per property serves every caller.
# The fold's memo belongs to one run (see certify._fold), never to a plugin.
PLUGINS: Dict[str, PropertyPlugin] = {
    name: PropertyPlugin(name, alg()) for name, alg in _BASE_ALGEBRAS.items()
}


def get_plugin(name: str) -> PropertyPlugin:
    """The plugin of a property's name; the error lists every name the
    certifier accepts, its marked- variants too."""
    plugin = PLUGINS.get(name)
    if plugin is None:
        names = sorted([*PLUGINS, *("marked-" + p for p in PLUGINS)])
        raise PropertyError("unknown property %r (available: %s)" % (name, ", ".join(names)))
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
