"""Factorization forests, skeletons, and lazy pumping-pattern extraction.

A factorization forest for a word w under a morphism h into a finite monoid
M is an ordered tree whose leaves spell w and whose inner nodes either have
two children or have three or more children all sharing one idempotent
value.  `simon_forest` builds one of depth at most 3|M|, a leaf having depth
1, by Simon's induction on J-classes (Simon, TCS 1990; the count follows
Kufleitner, "The height of factorization forests", MFCS 2008).  Green's
relations are those of T, the submonoid generated by the letter images; the
construction reads only the J-class of each element, computed once per
morphism (`MonoidMorphism.j_class`).  Every step is a loop over its
sequence, and recursion goes one call per tree level.

Why the depth holds.  Let U(w) be the set of elements of T that are >=_J
h(w); the value of every infix of w lies in U(w).  By induction on |U(w)|,
the forest of w has height (depth - 1) at most 3|U(w)| - 1 <= 3|M| - 1.

Let J be the J-class of h(w).  `_forest` cuts w from the left into items
v c, each ending at the first letter c at which the product of the item falls
into J, and a tail t whose product stays above J.  The pieces v and t lie
strictly above J, so their forests have height at most h = 3|U(w) - J| - 1
(h = -1 when all are empty).  An item <forest(v), c> has height <= h + 1;
the last item also takes the tail, <<forest(v), c>, forest(t)>, of height
<= h + 2.  Item values and their product lie in J, hence so does every
infix of the item sequence: it is smooth.  It remains to build a tree over
a smooth sequence of height at most h + 3|J|.

`_smooth`: let q_1..q_m be the prefix products and x = q_m.  Cutting after
each j with q_j = x gives a head of value x and blocks b with xb = x.  By
stability of finite monoids b L x, so b = ux and bb = uxb = b: the blocks
are idempotents of the L-class of x, and such idempotents satisfy ef = e.
Head and blocks are <smooth(prefix), item>.  The prefix of the head has its
prefix products among {q_1..q_m} - {x}; so does the prefix of a block, up to
the injection y -> xy on the R-class of b (by = y and b = ux).  `_band`
groups the blocks, preceded by the head when x is idempotent, at each
occurrence of the first value e: a group <e, band(rest)> has value e, the
rest avoids e, and the groups form one idempotent node.  With q distinct
values a band takes 2q - 1 levels, and q <= n, the number of R-classes of J
(an H-class holds one idempotent at most).  So over items of height h + 1
the tree has height at most h + (2n + 1)k, where k = |{q_1..q_m}| <= |R|,
the size of an R-class of J, and (2n + 1)|R| <= 3n|R| = 3|J|.  The last
item is never passed down: it sits at most 2n + 1 levels below the root,
which keeps it within h + 2n + 3 <= h + 3|J| when |R| >= 2.  When |R| = 1
every position is a cut, x is idempotent (each R-class of a regular J-class
holds an idempotent), and the sequence is one band of height at most
h + 2 + 2n - 1 <= h + 3|J|.  A single item costs nothing, and a J-class
without idempotents admits no longer smooth sequence.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from .cplc import Cplc, PumpingPattern, product_monoid
from .lang import MonoidMorphism, Scanner


class ForestError(ValueError):
    pass


@dataclass
class ForestNode:
    value: int                 # monoid element
    children: tuple = ()       # empty for leaves
    letter: object = None      # set for leaves
    start: int = 0             # 1-based leaf positions covered
    end: int = 0
    uid: int = field(default=-1, compare=False)

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def yield_word(self) -> tuple:
        if self.is_leaf:
            return (self.letter,)
        out = []
        stack = [self]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                out.append(node.letter)
            else:
                stack.extend(reversed(node.children))
        return tuple(out)

    def depth(self) -> int:
        if self.is_leaf:
            return 1
        return 1 + max(c.depth() for c in self.children)

    def all_nodes(self):
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children)


def _mk_node(mor: MonoidMorphism, children) -> ForestNode:
    v = children[0].value
    for c in children[1:]:
        v = mor.monoid.mul(v, c.value)
    return ForestNode(value=v, children=tuple(children),
                      start=children[0].start, end=children[-1].end)


def simon_forest(mor: MonoidMorphism, word) -> ForestNode:
    """Build a factorization forest of depth at most 3|M| (leaves have
    depth 1) by Simon's induction on J-classes; see the module docstring."""
    word = tuple(word)
    if not word:
        raise ForestError("factorization forests require a nonempty word")
    leaves = [ForestNode(value=mor.image((a,)), letter=a, start=i + 1, end=i + 1)
              for i, a in enumerate(word)]
    root = _forest(mor, leaves)
    _assign_uids(root)
    return root


def _assign_uids(root: ForestNode):
    for i, node in enumerate(root.all_nodes()):
        node.uid = i


def _forest(mor: MonoidMorphism, leaves) -> ForestNode:
    """Cut the leaves into items whose products fall into the J-class of the
    whole product, the last item taking the tail above it, and build the
    tree over the smooth item sequence."""
    m = mor.monoid
    j_class = mor.j_class()
    total = m.unit
    for leaf in leaves:
        total = m.mul(total, leaf.value)
    target = j_class[total]
    items = []
    start = 0
    acc = m.unit
    for i, leaf in enumerate(leaves):
        acc = m.mul(acc, leaf.value)
        if j_class[acc] == target:
            items.append(_mk_node(mor, (_forest(mor, leaves[start:i]), leaf))
                         if i > start else leaf)
            start = i + 1
            acc = m.unit
    if start < len(leaves):
        items[-1] = _mk_node(mor, (items[-1], _forest(mor, leaves[start:])))
    return _smooth(mor, items)


def _smooth(mor: MonoidMorphism, items) -> ForestNode:
    """Tree over items whose values and product lie in one J-class: cut
    after every prefix product equal to the whole product x; the head has
    value x, the blocks are idempotents of the L-class of x."""
    m = mor.monoid
    prefix = list(itertools.accumulate((it.value for it in items), m.mul))
    x = prefix[-1]
    parts = []
    start = 0
    for j, q in enumerate(prefix):
        if q == x:
            parts.append(_mk_node(mor, (_smooth(mor, items[start:j]), items[j]))
                         if j > start else items[j])
            start = j + 1
    if m.is_idempotent(x):
        return _band(mor, parts)
    if len(parts) == 1:
        return parts[0]
    return _mk_node(mor, (parts[0], _band(mor, parts[1:])))


def _band(mor: MonoidMorphism, parts) -> ForestNode:
    """Tree over idempotents of one L-class, where ef = e: a group opens at
    each occurrence of the first value y, has value y, and the groups form
    one idempotent node."""
    y = parts[0].value
    opens = [i for i, p in enumerate(parts) if p.value == y] + [len(parts)]
    groups = [_mk_node(mor, (parts[a], _band(mor, parts[a + 1:b])))
              if b > a + 1 else parts[a] for a, b in zip(opens, opens[1:])]
    return groups[0] if len(groups) == 1 else _mk_node(mor, groups)


def validate(root: ForestNode, mor: MonoidMorphism, word=None) -> bool:
    """Check the factorization forest conditions (and the yield when given)."""
    m = mor.monoid
    for node in root.all_nodes():
        if node.is_leaf:
            if node.value != mor.image((node.letter,)):
                return False
            continue
        if len(node.children) < 2:
            return False
        v = node.children[0].value
        for c in node.children[1:]:
            v = m.mul(v, c.value)
        if v != node.value:
            return False
        if len(node.children) >= 3:
            vals = {c.value for c in node.children}
            if len(vals) != 1 or not m.is_idempotent(node.children[0].value):
                return False
            if node.value != node.children[0].value:
                return False
    if word is not None and root.yield_word() != tuple(word):
        return False
    return True


# ---------------------------------------------------------------------------
# skeletons, observation, dependency


def skeleton(node: ForestNode) -> frozenset:
    """Ske(t): t together with the skeletons of its first and last child."""
    out = set()
    stack = [node]
    while stack:
        t = stack.pop()
        out.add(t.uid)
        if not t.is_leaf:
            stack.append(t.children[0])
            stack.append(t.children[-1])
    return frozenset(out)


@dataclass
class SkeletonAnalysis:
    root: ForestNode
    nodes: dict            # uid -> node
    parent: dict           # uid -> uid of parent (root absent)
    child_index: dict      # uid -> position among siblings
    skel_root: dict        # leaf uid -> uid of the maximal skeleton owner

    def node(self, uid):
        return self.nodes[uid]

    def leaves(self):
        return [u for u, n in self.nodes.items() if n.is_leaf]


def skeleton_analysis(root: ForestNode) -> SkeletonAnalysis:
    nodes = {n.uid: n for n in root.all_nodes()}
    parent = {}
    child_index = {}
    for n in root.all_nodes():
        for i, c in enumerate(n.children):
            parent[c.uid] = n.uid
            child_index[c.uid] = i
    skel_root = {}
    for uid, n in nodes.items():
        if not n.is_leaf:
            continue
        cur = uid
        # climb while the current node is the first or last child
        while cur in parent:
            p = parent[cur]
            idx = child_index[cur]
            if idx == 0 or idx == len(nodes[p].children) - 1:
                cur = p
            else:
                break
        skel_root[uid] = cur
    return SkeletonAnalysis(root, nodes, parent, child_index, skel_root)


def observes(analysis: SkeletonAnalysis, t_prime: int, t: int) -> bool:
    """t' observes t when t' is an ancestor-or-self of t, or an immediate
    sibling of an ancestor-or-self of t."""
    anc = set()
    cur = t
    while True:
        anc.add(cur)
        if cur not in analysis.parent:
            break
        cur = analysis.parent[cur]
    if t_prime in anc:
        return True
    for a in anc:
        if a not in analysis.parent:
            continue
        siblings = analysis.nodes[analysis.parent[a]].children
        idx = analysis.child_index[a]
        for j in (idx - 1, idx + 1):
            if 0 <= j < len(siblings) and siblings[j].uid == t_prime:
                return True
    return False


def dependent_pairs(analysis: SkeletonAnalysis):
    """Leaf dependency: x -> y when skel_root(y) observes skel_root(x)."""
    leaves = analysis.leaves()
    out = set()
    for x in leaves:
        for y in leaves:
            if x == y:
                continue
            if observes(analysis, analysis.skel_root[y], analysis.skel_root[x]):
                out.add((x, y))
    return out


def independent_leaf_bound(depth: int) -> int:
    """Any leaf depends on at most 3 * depth * 2^depth leaves."""
    return 3 * depth * (2 ** depth)


# ---------------------------------------------------------------------------
# serialization


def to_brackets(root: ForestNode) -> str:
    """Bracket string over the extended alphabet A + {<, >}."""
    out = []

    def walk(n):
        if n.is_leaf:
            out.append(str(n.letter))
            return
        out.append("<")
        for c in n.children:
            walk(c)
        out.append(">")

    walk(root)
    return "".join(out)


def from_brackets(text: str, mor: MonoidMorphism) -> ForestNode:
    """Inverse of to_brackets; blanks between tokens are ignored."""
    s = Scanner(text, ForestError)
    node = s.finish(_bracket_node(s, mor))
    _fix_positions(node, 1)
    _assign_uids(node)
    return node


def _bracket_node(s: Scanner, mor: MonoidMorphism) -> ForestNode:
    c = s.peek()
    if c is None:
        s.fail("unexpected end of bracket string")
    if s.take("<"):
        children = [_bracket_node(s, mor)]
        while s.peek() not in (None, ">"):
            children.append(_bracket_node(s, mor))
        s.expect(">")
        return _mk_node(mor, children)
    if c not in mor.alphabet:
        s.fail("unexpected %r" % c)
    s.pos += 1
    return ForestNode(value=mor.image((c,)), letter=c)


def _fix_positions(node: ForestNode, start: int) -> int:
    if node.is_leaf:
        node.start = node.end = start
        return start + 1
    cur = start
    for c in node.children:
        cur = _fix_positions(c, cur)
    node.start = start
    node.end = cur - 1
    return cur


def to_dot(root: ForestNode) -> str:
    lines = ["digraph forest {", "  node [shape=box];"]
    for n in root.all_nodes():
        label = str(n.letter) if n.is_leaf else "val=%d" % n.value
        lines.append('  n%d [label="%s"];' % (n.uid, label))
    for n in root.all_nodes():
        for c in n.children:
            lines.append("  n%d -> n%d;" % (n.uid, c.uid))
    lines.append("}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# pumping-pattern extraction


def _harvest_candidates(morphism: MonoidMorphism, word: tuple):
    """What a harvest reads of the forest of `word`: the skeleton owners that
    are not the root and touch neither end of the word, in uid order, as
    (start, end, skeleton yield), and the index pairs (i, j), i < j, of
    those where one observes the other, as an ancestor does."""
    root = simon_forest(morphism, word)
    analysis = skeleton_analysis(root)
    nodes = [analysis.nodes[u] for u in sorted({analysis.skel_root[u] for u in analysis.leaves()})
             if u != root.uid and analysis.nodes[u].start > 1 and analysis.nodes[u].end < len(word)]
    observing = {(i, j) for i, j in itertools.combinations(range(len(nodes)), 2)
                 if observes(analysis, nodes[i].uid, nodes[j].uid)
                 or observes(analysis, nodes[j].uid, nodes[i].uid)}
    return [(n.start, n.end, tuple(t.letter for t in sorted(map(analysis.node, skeleton(n)),
                                                            key=lambda t: t.start) if t.is_leaf))
            for n in nodes], observing


def extract_patterns(f: Cplc, sample_words, k: int, cap: int = 200,
                     seed: int = 0, morphism=None, forests=None):
    """Pumping patterns of size k harvested from factorization forests of
    the sample words under the product-monoid morphism of f, generated
    lazily: the forest of a sample word is built only when the patterns of
    the words before it have all been read, and a repeated pattern is
    skipped.  `forests` maps sample words to what a harvest reads of their
    forests (`_harvest_candidates`); it is read and filled, so harvests can
    share that work.

    A pattern comes from k pairwise independent skeleton owners: none is the
    root, they neither observe each other nor touch the word boundary, and
    so their spans are disjoint.  The pump words are the skeleton yields,
    the connectors the remaining stretches of the sample word.
    """
    if morphism is None:
        _, morphism = product_monoid(f)
    forests = {} if forests is None else forests
    rng = random.Random(seed)
    seen = set()
    for word in sample_words:
        word = tuple(word)
        if not word:
            continue
        if word not in forests:
            forests[word] = _harvest_candidates(morphism, word)
        candidates, observing = forests[word]
        tuples = list(itertools.islice(
            (sorted(candidates[i] for i in combo)
             for combo in itertools.combinations(range(len(candidates)), k)
             if not any(pair in observing for pair in itertools.combinations(combo, 2))),
            4 * cap))
        if len(tuples) > cap:
            tuples = rng.sample(tuples, cap)
        for spans in tuples:
            ends = [0] + [end for _, end, _ in spans]
            alphas = [word[e:s - 1] for e, (s, _, _) in zip(ends, spans)] + [word[ends[-1]:]]
            pat = PumpingPattern(tuple(alphas), tuple(pump for _, _, pump in spans))
            if pat not in seen:
                seen.add(pat)
                yield pat
