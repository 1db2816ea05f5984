"""Algorithm 3: tree-based hierarchical diffusion edits.

Instead of rebuilding the Huffman tree from scratch at every adaptation
point, the existing tree is *reorganised* so retained nests keep their tree
positions — and therefore receive rectangles overlapping their old ones:

1. leaves of deleted nests are marked **free**; sibling free slots collapse
   into a single free slot ("deleted nodes 1, 2 have been combined as one
   empty node", paper Fig. 8a);
2. retained nests get their new weights; internal weights are re-summed;
3. each new nest is inserted into the free slot whose **sibling weight is
   closest** to the new nest's weight (keeps sibling weights similar, hence
   square-like rectangles — paper Figs. 6–7);
4. when one free slot remains and several new nests do, the surplus becomes
   a Huffman subtree rooted at that slot;
5. surplus free slots are pruned (the sibling splices into the parent's
   position);
6. with **no** free slots left (pure insertion), each new nest pairs up with
   the existing leaf of closest weight (paper §IV-B prose, Fig. 6).

The result "may no longer be a Huffman tree" (paper) — that is the price
paid for overlap.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from repro.obs import get_recorder
from repro.sanitize.hooks import get_sanitizer
from repro.tree.huffman import build_huffman
from repro.tree.node import TreeNode

__all__ = ["diffusion_edit"]


def _collapse_free_siblings(root: TreeNode) -> TreeNode:
    """Collapse internal nodes whose children are both free into one slot.

    Applied bottom-up to a fixpoint; returns the (possibly new) root.
    """
    if root.is_leaf:
        return root
    left = _collapse_free_siblings(root.left)  # type: ignore[arg-type]
    right = _collapse_free_siblings(root.right)  # type: ignore[arg-type]
    if left is not root.left:
        root.replace_child(root.left, left)  # type: ignore[arg-type]
    if right is not root.right:
        root.replace_child(root.right, right)  # type: ignore[arg-type]
    if left.is_leaf and left.free and right.is_leaf and right.free:
        return TreeNode(0.0, free=True)
    return root


def _splice_out(root: TreeNode, leaf: TreeNode) -> TreeNode | None:
    """Remove ``leaf``; its sibling takes the parent's place.

    Returns the new root (``None`` when the tree becomes empty).
    """
    parent = leaf.parent
    if parent is None:  # leaf is the root
        return None
    sibling = leaf.sibling
    assert sibling is not None
    grand = parent.parent
    if grand is None:
        sibling.parent = None
        return sibling
    grand.replace_child(parent, sibling)
    return root


def _fill_slot(slot: TreeNode, replacement: TreeNode) -> TreeNode:
    """Put ``replacement`` where free ``slot`` currently sits.

    Returns the new root if the slot was the root, else the old structure is
    modified in place and the caller's root remains valid.
    """
    parent = slot.parent
    if parent is None:
        replacement.parent = None
        return replacement
    parent.replace_child(slot, replacement)
    return replacement


def _attach_beside(leaf: TreeNode, new_leaf: TreeNode) -> None:
    """Replace ``leaf`` with an internal node over ``{leaf, new_leaf}``.

    Used for pure insertion (no free slots): the new nest is "inserted near"
    the existing node of closest weight (paper Fig. 6).  The lighter of the
    two becomes the left child, matching the Huffman child convention.
    """
    parent = leaf.parent
    if leaf.weight <= new_leaf.weight:
        pair = TreeNode(leaf.weight + new_leaf.weight, left=leaf, right=new_leaf)
    else:
        pair = TreeNode(leaf.weight + new_leaf.weight, left=new_leaf, right=leaf)
    if parent is not None:
        # replace_child rejects nodes that are no longer children, so splice
        # manually: leaf's parent pointer was just overwritten by TreeNode.
        if parent.left is leaf:
            parent.left = pair
        else:
            parent.right = pair
        pair.parent = parent


def diffusion_edit(
    oldtree: TreeNode,
    deleted: Iterable[int],
    retained_weights: Mapping[int, float],
    new_weights: Mapping[int, float],
    insertion: str = "sibling-match",
) -> TreeNode | None:
    """Reorganise ``oldtree`` for the next adaptation point (Algorithm 3).

    Parameters
    ----------
    oldtree:
        The current allocation tree.  It is **not** modified; a clone is
        edited and returned.
    deleted:
        Nest ids present in ``oldtree`` whose regions of interest vanished.
    retained_weights:
        New weights for every nest that persists (must cover exactly the
        non-deleted leaves of ``oldtree``).
    new_weights:
        Weights for nests appearing at this adaptation point.
    insertion:
        ``"sibling-match"`` (Algorithm 3, line 13: fill the free slot whose
        sibling weight is closest to the new weight) or ``"first-free"``
        (ablation baseline: fill free slots in discovery order, which can
        pair very unequal weights and skew the rectangles — the paper's
        Fig. 7 effect).

    Returns
    -------
    The edited tree, or ``None`` when every nest was deleted and none added.
    """
    if insertion not in ("sibling-match", "first-free"):
        raise ValueError(f"unknown insertion policy {insertion!r}")
    deleted = list(deleted)
    old_ids = set(oldtree.nest_ids())
    if not set(deleted) <= old_ids:
        raise KeyError(f"deleting nests not in tree: {sorted(set(deleted) - old_ids)}")
    expected_retained = old_ids - set(deleted)
    if set(retained_weights) != expected_retained:
        raise KeyError(
            f"retained_weights keys {sorted(retained_weights)} != "
            f"surviving nests {sorted(expected_retained)}"
        )
    clash = set(new_weights) & old_ids
    if clash:
        raise KeyError(f"new nests reuse live ids: {sorted(clash)}")
    for nid, w in list(retained_weights.items()) + list(new_weights.items()):
        if not w > 0:
            raise ValueError(f"nest {nid} has non-positive weight {w!r}")

    with get_recorder().span(
        "tree.diffusion_edit",
        n_deleted=len(deleted),
        n_retained=len(retained_weights),
        n_new=len(new_weights),
    ):
        result = _diffusion_edit(
            oldtree, deleted, retained_weights, new_weights, insertion
        )
    sanitizer = get_sanitizer()
    if sanitizer.enabled:
        sanitizer.after_tree_edit(
            result, deleted, dict(retained_weights), dict(new_weights)
        )
    return result


def _diffusion_edit(
    oldtree: TreeNode,
    deleted: list[int],
    retained_weights: Mapping[int, float],
    new_weights: Mapping[int, float],
    insertion: str,
) -> TreeNode | None:
    """The edit steps of :func:`diffusion_edit` (pre-validated arguments)."""
    flight = get_recorder()
    root = oldtree.clone()

    # 1. mark deleted leaves free, collapse sibling free slots
    for nest_id in deleted:
        leaf = root.find_leaf(nest_id)
        leaf.free = True
        leaf.nest_id = None
        leaf.weight = 0.0
        flight.emit("tree.free", nest=nest_id)
    root = _collapse_free_siblings(root)

    # 2. re-weight retained leaves and internal sums
    for nest_id, w in retained_weights.items():
        root.find_leaf(nest_id).weight = float(w)
    root.update_weights()

    free_slots = [leaf for leaf in root.leaves() if leaf.free]
    pending = sorted(new_weights.items(), key=lambda kv: -kv[1])  # heavy first

    # 3. sibling-weight-matched insertion while >1 free slot remains
    while pending and len(free_slots) > 1:
        nest_id, w = pending.pop(0)
        if insertion == "sibling-match":
            best = min(
                free_slots,
                key=lambda s: abs(
                    (s.sibling.weight if s.sibling is not None else 0.0) - w
                ),
            )
        else:  # first-free ablation baseline
            best = free_slots[0]
        free_slots.remove(best)
        was_root = best is root
        filled = _fill_slot(best, TreeNode(w, nest_id=nest_id))
        if was_root:
            root = filled
        flight.emit("tree.fill_slot", nest=nest_id, policy=insertion)

    # 4. surplus new nests become a Huffman subtree at the last free slot
    if pending:
        if free_slots:
            slot = free_slots.pop()
            subtree = build_huffman(dict(pending))
            assert subtree is not None
            was_root = slot is root
            filled = _fill_slot(slot, subtree)
            if was_root:
                root = filled
            flight.emit("tree.huffman_fill", n_nests=len(pending))
            pending = []
        else:
            # 6. pure insertion: pair each new nest with the closest-weight leaf
            for nest_id, w in pending:
                candidates = list(root.nest_leaves())
                target = min(candidates, key=lambda lf: abs(lf.weight - w))
                new_leaf = TreeNode(w, nest_id=nest_id)
                if target.parent is None:  # tree is a single leaf
                    if target.weight <= w:
                        root = TreeNode(target.weight + w, left=target, right=new_leaf)
                    else:
                        root = TreeNode(target.weight + w, left=new_leaf, right=target)
                else:
                    _attach_beside(target, new_leaf)
                root.update_weights()
                flight.emit("tree.pair_insert", nest=nest_id)
            pending = []

    # 5. prune surplus free slots
    for slot in free_slots:
        flight.emit("tree.prune_slot")
        new_root = _splice_out(root, slot)
        if new_root is None:
            return None
        root = new_root

    root.update_weights()
    root.validate()
    return root
