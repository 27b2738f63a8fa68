"""Factorization forests, skeletons, and pumping-pattern extraction.

A factorization forest for a word w under a morphism into a finite monoid M
is an ordered tree whose leaves spell w and whose internal nodes either have
two children or have three or more children all sharing one idempotent
value.  Conformance is defined by `validate` plus the depth bound 3|M|.

The construction below contracts runs of equal idempotent values, uses an
exact recursion when the generated subsemigroup is a group (splitting at
repeated prefix products, whose count strictly decreases), splits at the
most frequent prefix product otherwise, and falls back to pairwise joining.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from .cplc import Cplc, PumpingPattern, product_monoid
from .lang import FiniteMonoid, MonoidMorphism


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
    """Build a factorization forest of depth at most 3|M| (plus the leaf
    level bookkeeping: leaves have depth 1)."""
    word = tuple(word)
    if not word:
        raise ForestError("factorization forests require a nonempty word")
    leaves = [ForestNode(value=mor.image((a,)), letter=a, start=i + 1, end=i + 1)
              for i, a in enumerate(word)]
    root = _build(leaves, mor)
    _assign_uids(root)
    return root


def _assign_uids(root: ForestNode):
    for i, node in enumerate(root.all_nodes()):
        node.uid = i


def _build(items, mor: MonoidMorphism) -> ForestNode:
    m = mor.monoid
    if len(items) == 1:
        return items[0]
    if len(items) == 2:
        return _mk_node(mor, items)
    values = [it.value for it in items]
    # one idempotent node when everything agrees
    if len(set(values)) == 1 and m.is_idempotent(values[0]):
        return _mk_node(mor, items)
    # contract maximal runs (length >= 2) of one idempotent value
    contracted = _contract_runs(items, mor)
    if contracted is not None:
        return _build(contracted, mor)
    closure = _generated_subsemigroup(m, set(values))
    if _is_group(m, closure):
        return _build_group(items, mor, closure)
    split = _j_split(items, mor)
    if split is not None:
        return split
    split = _split_prefix(items, mor)
    if split is not None:
        return split
    # last resort: halve by pairing neighbours
    paired = [(_mk_node(mor, items[i:i + 2]) if i + 1 < len(items) else items[i])
              for i in range(0, len(items), 2)]
    return _build(paired, mor)


def _contract_runs(items, mor):
    m = mor.monoid
    out = []
    i = 0
    changed = False
    while i < len(items):
        j = i
        v = items[i].value
        if m.is_idempotent(v):
            while j + 1 < len(items) and items[j + 1].value == v:
                j += 1
        if j > i:
            out.append(_mk_node(mor, items[i:j + 1]))
            changed = True
        else:
            out.append(items[i])
        i = j + 1
    return out if changed and len(out) < len(items) else None


def _generated_subsemigroup(m: FiniteMonoid, gens):
    closure = set(gens)
    frontier = set(gens)
    while frontier:
        new = set()
        for x in frontier:
            for g in gens:
                for y in (m.mul(x, g), m.mul(g, x)):
                    if y not in closure:
                        new.add(y)
        closure |= new
        frontier = new
    return closure


def _is_group(m: FiniteMonoid, closure) -> bool:
    idems = [x for x in closure if m.is_idempotent(x)]
    if len(idems) != 1:
        return False
    e = idems[0]
    if any(m.mul(e, x) != x or m.mul(x, e) != x for x in closure):
        return False
    return all(any(m.mul(x, y) == e for y in closure) for x in closure)


def _build_group(items, mor, closure) -> ForestNode:
    """Exact recursion for the group case.

    Split at the positions whose prefix product equals the total product g;
    the blocks between consecutive such positions multiply to the group
    identity, hence share an idempotent value, and stripping the last item
    of a block strictly decreases the number of distinct prefix products.
    """
    m = mor.monoid
    if len(items) <= 2:
        return _mk_node(mor, items) if len(items) == 2 else items[0]
    e = next(x for x in closure if m.is_idempotent(x))
    prefix = []
    acc = e
    for it in items:
        acc = m.mul(acc, it.value)
        prefix.append(acc)
    g = prefix[-1]
    hits = [i for i, p in enumerate(prefix) if p == g]

    def block_tree(block):
        if len(block) == 1:
            return block[0]
        head = _build_group(block[:-1], mor, closure)
        return _mk_node(mor, (head, block[-1]))

    if len(hits) == 1:
        # g appears only at the end: strip the last item and recurse
        head = _build_group(items[:-1], mor, closure)
        return _mk_node(mor, (head, items[-1]))
    first = hits[0]
    head_block = items[:first + 1]
    mids = [block_tree(items[hits[j] + 1:hits[j + 1] + 1])
            for j in range(len(hits) - 1)]
    if len(mids) == 1:
        mid = mids[0]
    elif len(mids) >= 3 and len({t.value for t in mids}) == 1 \
            and m.is_idempotent(mids[0].value):
        mid = _mk_node(mor, mids)
    else:
        mid = _build(mids, mor)
    return _mk_node(mor, (block_tree(head_block), mid))


def _ideal(mor: MonoidMorphism, v: int):
    """The two-sided ideal of v, closed under the letter generators."""
    m = mor.monoid
    gens = set(mor.letter_images.values())
    out = {v}
    frontier = [v]
    while frontier:
        x = frontier.pop()
        for g in gens:
            for y in (m.mul(g, x), m.mul(x, g)):
                if y not in out:
                    out.add(y)
                    frontier.append(y)
    return out


def _j_split(items, mor):
    """Peel off a maximal J-class.

    Write the item sequence as B_0 y_1 B_1 ... y_s B_s where the B_i are
    maximal blocks of items whose value sits in the chosen maximal J-class
    and the y_i are the items below it.  Joining each y_i with the block
    that follows (and B_0 with y_1) yields a strictly shorter sequence whose
    values all left the peeled class.
    """
    values = sorted({it.value for it in items})
    ideals = {v: _ideal(mor, v) for v in values}
    maximal = [v for v in values
               if all(v not in ideals[u] or u in ideals[v] for u in values)]
    j0 = maximal[0]
    top = {v for v in values if v in ideals[j0] and j0 in ideals[v]}
    if all(it.value in top for it in items):
        return None
    blocks = [[]]
    separators = []
    for it in items:
        if it.value in top:
            blocks[-1].append(it)
        else:
            separators.append(it)
            blocks.append([])
    new_items = []
    for i, y in enumerate(separators):
        after = blocks[i + 1]
        z = y if not after else _mk_node(mor, (y, _build(after, mor)))
        if i == 0 and blocks[0]:
            z = _mk_node(mor, (_build(blocks[0], mor), z))
        new_items.append(z)
    return _build(new_items, mor)


def _split_prefix(items, mor):
    """Split at the most frequent prefix product when that gives progress."""
    m = mor.monoid
    prefix = []
    acc = m.unit
    for it in items:
        acc = m.mul(acc, it.value)
        prefix.append(acc)
    counts = {}
    for p in prefix[:-1]:
        counts[p] = counts.get(p, 0) + 1
    if not counts:
        return None
    best = max(sorted(counts), key=lambda p: counts[p])
    if counts[best] < 2:
        return None
    hits = [i for i, p in enumerate(prefix[:-1]) if p == best]
    cuts = [0] + [i + 1 for i in hits] + [len(items)]
    blocks = [items[cuts[j]:cuts[j + 1]] for j in range(len(cuts) - 1)]
    if len(blocks) >= len(items):
        return None
    trees = [b[0] if len(b) == 1 else _build(b, mor) for b in blocks]
    return _build(trees, mor)


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
    pos = 0

    def parse():
        nonlocal pos
        if pos >= len(text):
            raise ForestError("unexpected end of bracket string")
        c = text[pos]
        if c == "<":
            pos += 1
            children = []
            while pos < len(text) and text[pos] != ">":
                children.append(parse())
            if pos >= len(text):
                raise ForestError("missing '>'")
            pos += 1
            return _mk_node(mor, children)
        if c == ">":
            raise ForestError("unexpected '>'")
        pos += 1
        return ForestNode(value=mor.image((c,)), letter=c)

    node = parse()
    if pos != len(text):
        raise ForestError("trailing input in bracket string")
    _fix_positions(node, 1)
    _assign_uids(node)
    return node


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


def extract_patterns(f: Cplc, sample_words, k: int, cap: int = 200,
                     seed: int = 0, morphism=None):
    """Pumping patterns of size k harvested from factorization forests of
    the sample words under the product-monoid morphism of f.

    A pattern comes from k pairwise independent skeleton owners: none is the
    root, they neither observe each other nor touch the word boundary, and
    their spans are disjoint in order.  The pump words are the skeleton
    yields, the connectors the remaining stretches of the sample word.
    """
    if morphism is None:
        _, morphism = product_monoid(f)
    rng = random.Random(seed)
    patterns = []
    seen = set()
    for word in sample_words:
        word = tuple(word)
        if not word:
            continue
        root = simon_forest(morphism, word)
        analysis = skeleton_analysis(root)
        owners = sorted({analysis.skel_root[u] for u in analysis.leaves()})
        candidates = []
        for uid in owners:
            n = analysis.nodes[uid]
            if uid == root.uid:
                continue
            if n.start <= 1 or n.end >= len(word):
                continue
            candidates.append(uid)
        tuples = []
        for combo in itertools.combinations(candidates, k):
            nodes = sorted((analysis.nodes[u] for u in combo), key=lambda n: n.start)
            if any(nodes[i].end >= nodes[i + 1].start for i in range(k - 1)):
                continue
            if any(observes(analysis, a.uid, b.uid) or observes(analysis, b.uid, a.uid)
                   for a, b in itertools.combinations(nodes, 2)):
                continue
            tuples.append(nodes)
            if len(tuples) >= 4 * cap:
                break
        if len(tuples) > cap:
            tuples = rng.sample(tuples, cap)
        for nodes in tuples:
            pumps = []
            alphas = []
            prev_end = 0
            for n in nodes:
                sk = skeleton(n)
                sk_yield = tuple(analysis.nodes[u].letter
                                 for u in sorted(sk, key=lambda u: analysis.nodes[u].start)
                                 if analysis.nodes[u].is_leaf)
                alphas.append(word[prev_end:n.start - 1])
                pumps.append(sk_yield)
                prev_end = n.end
            alphas.append(word[prev_end:])
            pat = PumpingPattern(tuple(alphas), tuple(pumps))
            if pat not in seen:
                seen.add(pat)
                patterns.append(pat)
    return patterns
