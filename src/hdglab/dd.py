"""Nonoverlapping domain decomposition of the condensed trace system.

Each subdomain carries the element-scattered trace matrix plus the Robin
modification +1/2<beta.n lam, mu> on its interface edges (n = outward normal
of the subdomain).  The modification cancels pairwise across an interface, so
the subdomain systems sum back to the global operator exactly, while making
each local problem solvable on its own.

The local Schur complements S_i come from multilevel static condensation of
the element blocks ``sys.blocks.S_hat``: nested dissection (George, 1973) of
each subdomain's r x r cells, r = H/h.  Every subdomain of the structured
mesh is a translate of the first one, so one elimination plan, built from that
reference subdomain with its edges named by geometry, serves all of them.  The
two triangles of a cell merge into a square by eliminating the diagonal; then
rectangles merge pairwise by recursive bisection (1x1 -> 2x1 -> 2x2 -> ...
-> r x r, uneven halves where r is odd).  A merge eliminates the DOFs that the
two halves share, for every (subdomain, rectangle) of one shape at once: one
batched elimination X = A_ss^-1 [A_sb | f_s] and one batched update
S_bb - A_bs X.  Each cluster keeps its DOFs as [shared with its sibling | own]
blocks, so a merge is slicing, one s x s add and one flat permutation.  The
merges do not pivot: the symmetric part of the HDG form is positive definite
on the interior DOFs, and every pivot is checked against the block it sits in.

Dirichlet edges ride through the merges as kept DOFs, so the shapes are the
same in every subdomain, and are dropped at the root.  The interior load of
``sys.b`` is eliminated with the matrix, as one more column, so the root yields
S_i (to which the Robin terms are then added) and the condensed interface
load.  The stored X of every merge give the back-substitution (``extend``).
Subdomains are condensed in runs whose stacks stay within ``CHUNK_ENTRIES``.

S_Gamma = sum_i R_i^T S_i R_i is never assembled: ``Subdomains.apply``
applies it from the stack with one gather, one batched product and one
scatter-add.
"""

import numpy as np

from .fespace import interface_quadrature
from .mesh import InvalidConfigError

# subdomains are condensed in runs whose largest merge stack holds at most
# this many entries, so only the outputs grow with the number of subdomains
CHUNK_ENTRIES = 2 ** 18


class SubdomainError(RuntimeError):
    """A subdomain-local factorization failed."""


def _robin_edge_matrices(mesh, spec, k):
    """Matrices M_e[m,l] = int_e (beta.n) P_m P_l ds of the interface edges,
    shape (n, k+1, k+1), in SubdomainEdge run order
    (``mesh.interface_runs.edges``).

    n is the outward normal of the lower-indexed subdomain of the edge's
    SubdomainEdge; the two incident subdomains add +M_e/2 and -M_e/2.
    """
    q, bn = interface_quadrature(mesh, spec, k)
    return np.einsum("q,eq,mq,lq,e->eml", q.rule.weights, bn, q.P, q.P,
                     q.half_len)


# -- the elimination plan ----------------------------------------------------
#
# An edge is named by the doubled coordinates (X, Y) of its midpoint, in cell
# units from the corner of the node that holds it: horizontal edges have X
# odd and Y even, vertical ones X even and Y odd, diagonals both odd.  A node
# is a triangle (shape 0 or 1, its type) or a w x h rectangle of cells (shape
# (w, h)); child j of a node sits at a cell offset within it.

def _order(edges):
    return sorted(edges, key=lambda e: (e[1], e[0]))


def _shift(edges, off, sign=1):
    return [(x + sign * 2 * off[0], y + sign * 2 * off[1]) for x, y in edges]


def _children(shape):
    """[(shape, offset)] of the two children: the triangles of a cell, or the
    halves of a rectangle cut across its longer side."""
    w, h = shape
    if shape == (1, 1):
        return [(0, (0, 0)), (1, (0, 0))]
    if w >= h:
        return [((w // 2, h), (0, 0)), ((w - w // 2, h), (w // 2, 0))]
    return [((w, h // 2), (0, 0)), ((w, h - h // 2), (0, h // 2))]


class _Merge:
    """The merge that forms every node of one rectangle shape.

    ``shared`` are the edges its two children share (eliminated), ``out`` the
    kept edges in the order of the merged stack (child 0's own edges, then
    child 1's), both in the node's frame; ``layouts[j]`` is child j's
    [shared | own] order in the child's frame.  ``nodes`` (n, 2) are the cell
    offsets of all nodes of the shape in the reference subdomain, in stack
    order, and ``takes`` [(parent shape, j, first, count, perm)] say which
    runs of them are child j of a parent and in what order (indices into
    ``out``) that parent reads their edges."""

    def __init__(self, shape, tri_edges):
        self.shape = shape
        kids = _children(shape)
        kept = [_shift(tri_edges[c] if isinstance(c, int) else _rim(c), off)
                for c, off in kids]
        self.shared = _order(set(kept[0]) & set(kept[1]))
        own = [_order(set(e) - set(self.shared)) for e in kept]
        self.out = own[0] + own[1]
        self.layouts = [_shift(self.shared + o, off, -1)
                        for o, (_, off) in zip(own, kids)]
        self.nodes = np.zeros((0, 2), dtype=np.int64)
        self.takes = []


def _rim(shape):
    """The boundary edges of a w x h rectangle at the origin."""
    w, h = shape
    xs, ys = range(1, 2 * w, 2), range(1, 2 * h, 2)
    return _order([(x, y) for y in (0, 2 * h) for x in xs]
                  + [(x, y) for y in ys for x in (0, 2 * w)])


def _plan(r, tri_edges):
    """The merges of an r x r subdomain, bottom-up (increasing area), with
    the stack order of every shape's nodes fixed top-down, and the runs of
    triangles [(type, cell offsets (n, 2), slot order)] that feed the cell
    merge.  Child j of the nodes of shape P, taken in P's stack order, is one
    contiguous run of the child shape's stack; so each merge reads its two
    children as two whole stacks."""
    merges, todo = {}, [(r, r)]
    while todo:
        shape = todo.pop()
        if shape not in merges:
            merges[shape] = _Merge(shape, tri_edges)
            todo += [c for c, _ in _children(shape) if isinstance(c, tuple)]
    merges[(r, r)].nodes = np.zeros((1, 2), dtype=np.int64)
    leaves = []
    for shape in sorted(merges, key=lambda s: -s[0] * s[1]):
        m = merges[shape]
        for j, (child, off) in enumerate(_children(shape)):
            nodes = m.nodes + off
            if isinstance(child, int):
                slots = [tri_edges[child].index(e) for e in m.layouts[j]]
                leaves.append((child, nodes, slots))
                continue
            c = merges[child]
            perm = [c.out.index(e) for e in m.layouts[j]]
            c.takes.append((shape, j, len(c.nodes), len(nodes), perm))
            c.nodes = np.concatenate([c.nodes, nodes])
    return sorted(merges.values(), key=lambda m: m.shape[0] * m.shape[1]), \
        leaves


def _dof_perm(perm, nds):
    return (np.asarray(perm, dtype=np.int64)[:, None] * nds
            + np.arange(nds)).ravel()


def _slots(id_at, edges, nodes, nds):
    """(len(nodes), len(edges) * nds) reference slots of ``edges`` (node
    frame) at every node offset: local edge index * nds + component."""
    xy = np.array(edges, dtype=np.int64).reshape(-1, 2)
    ids = id_at[xy[:, 0] + 2 * nodes[:, :1], xy[:, 1] + 2 * nodes[:, 1:]]
    return (ids[..., None] * nds + np.arange(nds)).reshape(len(nodes), -1)


def _flat_take(perm, n):
    """Flat indices reordering an (n, n+1) [matrix | load] block into the
    rows and columns ``perm``, the load column kept last."""
    cols = np.r_[perm, n]
    return (perm[:, None] * (n + 1) + cols).ravel()


def _reference(mesh):
    """Every subdomain's elements (n_sub, 2 r^2) and edges (n_sub, n_edges)
    in one relative order, read off the first subdomain, with the first
    subdomain's geometry: the element of each (cell i, cell j, type), the
    edges of each triangle type in slot order (cell frame) and the local edge
    at each doubled coordinate (-1 where there is none)."""
    r, n_sub = mesh.ratio, mesh.n_subdomains
    elems = mesh.subdomain_elements()
    te = mesh.tri_edges[elems]
    ref, inv = np.unique(te[0], return_inverse=True)
    inv = inv.reshape(te.shape[1:])
    edge_of = np.empty((n_sub, ref.size), dtype=te.dtype)
    edge_of[:, inv] = te
    if not np.array_equal(edge_of[:, inv], te):
        raise InvalidConfigError("subdomains are not translates of one "
                                 "another")
    V = mesh.vertices[mesh.triangles[elems[0]]]
    lo = V.min(axis=(0, 1))
    cell = (V.max(axis=(0, 1)) - lo) / r
    ij = np.floor((V.mean(axis=1) - lo) / cell).astype(np.int64)
    tri_at = np.empty((r, r, 2), dtype=np.int64)
    tri_at[ij[:, 0], ij[:, 1], mesh.tri_type[elems[0]]] = \
        np.arange(elems.shape[1])
    mid = mesh.vertices[mesh.edges[ref]].mean(axis=1)
    XY = np.rint(2.0 * (mid - lo) / cell).astype(np.int64)
    id_at = np.full((2 * r + 1, 2 * r + 1), -1, dtype=np.int64)
    id_at[XY[:, 0], XY[:, 1]] = np.arange(ref.size)
    tri_edges = [[tuple(XY[e]) for e in inv[tri_at[0, 0, t]]]
                 for t in (0, 1)]
    return elems, edge_of, tri_at, tri_edges, id_at


def _eliminate(M, ns):
    """In place on the stack M = [K | R] (N, ns, ns + c): X = K^-1 R into
    M[:, :, ns:] by recursive 2 x 2 block elimination without pivoting (the
    Schur updates are batched products).  Returns the pivots (N, ns), those
    of the unpivoted LU of K; non-finite where elimination broke down."""
    if ns == 1:
        piv = M[:, :, 0].copy()
        M[:, 0, 1:] /= piv
        return piv
    h = ns // 2
    p1 = _eliminate(M[:, :h], h)
    M[:, h:, h:] -= np.matmul(M[:, h:, :h], M[:, :h, h:])
    p2 = _eliminate(M[:, h:, h:], ns - h)
    M[:, :h, ns:] -= np.matmul(M[:, :h, h:ns], M[:, h:, ns:])
    return np.concatenate([p1, p2], axis=1)


class Subdomain:
    """One subdomain's view of the torn layer.  ``A`` rebuilds its dense
    Robin-modified matrix (a test oracle): interior DOFs, then interface
    DOFs, scattered from its elements, plus its Robin terms."""

    def __init__(self, layer, sidx):
        self.layer, self.sidx = layer, sidx
        self.nI, self.nG = int(layer.nI[sidx]), int(layer.nG[sidx])
        self.interior_gids = layer.dofs.interior_by_sub[sidx]
        self.interface_pos = layer.dofs.sub_interface_pos[sidx]
        self.interface_gids = self.interface_pos + layer.dofs.n_interior

    def dense_schur(self):
        """S^(i) = A_GG - A_GI A_II^-1 A_IG, a view into the layer's stack."""
        return self.layer.S[self.sidx, :self.nG, :self.nG]

    @property
    def A(self):
        L, n = self.layer, self.nI + self.nG
        loc = np.full(L.dofs.n_dofs + 1, n)     # fixed slots -> n, dropped
        loc[np.concatenate([self.interior_gids, self.interface_gids])] = \
            np.arange(n)
        els = L.elems[self.sidx]
        ed = loc[L.sys.elem_dofs[els]]
        A = np.zeros((n + 1) ** 2)
        np.add.at(A, (ed[:, :, None] * (n + 1) + ed[:, None, :]).ravel(),
                  L.sys.blocks.S_hat[els].ravel())
        A = A.reshape(n + 1, n + 1)[:n, :n]
        sub, lp, vals = L.robin
        mine = sub == self.sidx
        lp = self.nI + lp[mine]
        A[lp[:, :, None], lp[:, None, :]] += vals[mine]
        return A


class Subdomains:
    """The torn interface layer and the interface operator
    S_Gamma = sum_i R_i^T S^(i) R_i of its ``n`` interface DOFs; iterating
    yields one ``Subdomain`` each.

    ``pos`` (n_sub, w) intp holds every subdomain's interface positions,
    padded with n_interface to w = max nG: a gather from a vector with one
    zero appended reads 0 there, and a scatter-add drops it past the end.
    ``S`` (n_sub, w, w) stacks the local Schur complements with their Robin
    terms, and ``b_gamma`` is
    b_G - sum_i A_GI^(i) A_II^(i)^-1 b_I^(i).  ``elems`` (n_sub, 2 r^2) int32
    lists every subdomain's elements in the same relative order, and
    ``robin`` (sub, lp, vals) the Robin terms: for each side (2, n_edges) of
    every interface edge its subdomain (int32), the edge's local interface
    slots (int32) and +-M_e / 2.  ``steps`` holds, per merge and run of
    subdomains in build order, (X, s_ids, b_ids): X = A_ss^-1 [A_sb | f_s]
    and the int32 free-DOF ids of the eliminated and kept DOFs (n_dofs for a
    Dirichlet DOF, n_dofs + 1 for the load column).  ``nI`` and ``nG`` count
    each subdomain's interior and interface DOFs (int32).  Every index array
    is int32 but ``pos``, which each GMRES step gathers with: NumPy casts an
    index of any other dtype to intp on every call."""

    def __init__(self, sys, robin):
        dofs, mesh, nds = sys.dofs, sys.mesh, sys.k + 1
        self.sys, self.dofs, self.n = sys, dofs, dofs.n_interface
        n_sub, n0, n_ifc = mesh.n_subdomains, dofs.n_interior, dofs.n_interface
        n = dofs.n_dofs
        self.nI = np.array([g.size for g in dofs.interior_by_sub],
                           dtype=np.int32)
        self.nG = np.array([p.size for p in dofs.sub_interface_pos],
                           dtype=np.int32)
        w = int(self.nG.max(initial=0))

        # stacked row of (subdomain s, interface position p): positions
        # ascend within a subdomain, so the keys s * n_ifc + p are sorted;
        # they pass 2^31 on large grids, so they are int64
        key = lambda s, p: np.int64(n_ifc) * s + p
        row_sub = np.repeat(np.arange(n_sub), self.nG)
        row_pos = np.concatenate(dofs.sub_interface_pos)
        gstart = np.zeros(n_sub + 1, dtype=np.int32)
        np.cumsum(self.nG, out=gstart[1:])
        row_loc = np.arange(row_sub.size, dtype=np.int32) - gstart[row_sub]
        keys = key(row_sub, row_pos)
        local = lambda s, p: row_loc[np.searchsorted(keys, key(s, p))]
        # intp: NumPy casts any other index dtype on every gather of a step
        self.pos = np.full((n_sub, w), n_ifc, dtype=np.intp)
        self.pos[row_sub, row_loc] = row_pos

        # the plan, and every subdomain's slot -> free DOF map (n for a
        # Dirichlet slot)
        self.elems, edge_of, tri_at, tri_edges, id_at = _reference(mesh)
        gdof = dofs.edge_dofs[edge_of].reshape(n_sub, -1)
        gdof[gdof < 0] = n
        merges, leaves = _plan(mesh.ratio, tri_edges)
        # per merge: the reference slots of the eliminated and kept DOFs
        for m in merges:
            m.s_slots = _slots(id_at, m.shared, m.nodes, nds)
            m.b_slots = _slots(id_at, m.out, m.nodes, nds)
        leaves = [(tri_at[nodes[:, 0], nodes[:, 1], t], _dof_perm(slots, nds))
                  for t, nodes, slots in leaves]
        root = merges[-1]
        root_gid = gdof[:, root.b_slots[0]]
        is_ifc = (root_gid >= n0) & (root_gid < n)
        dst = np.full(root_gid.shape, -1)
        dst[is_ifc] = local(np.nonzero(is_ifc)[0], root_gid[is_ifc] - n0)

        per_sub = max(m.nodes.shape[0] * (len(m.out) * nds + 1) ** 2
                      for m in merges)
        run = max(1, CHUNK_ENTRIES // per_sub)
        self.S = np.zeros((n_sub, w, w))
        cond = np.zeros(n_ifc)
        self.steps = []
        bext = np.append(sys.b, 0.0)
        for s0 in range(0, n_sub, run):
            cs = np.arange(s0, min(s0 + run, n_sub))
            U = self._condense(cs, merges, leaves, sys.blocks.S_hat,
                               gdof[cs], bext, nds)
            # the root: interface rows and columns into S, the condensed
            # load onto the interface positions
            d, keep = dst[cs], is_ifc[cs]
            pair = keep[:, :, None] & keep[:, None, :]
            flat = (cs[:, None, None] * w + d[:, :, None]) * w + d[:, None, :]
            nr = U.shape[1]
            self.S.reshape(-1)[flat[pair]] = U[:, :, :nr][pair]
            cond += np.bincount(root_gid[cs][keep] - n0, U[:, :, nr][keep],
                                minlength=n_ifc)
        self.b_gamma = sys.b[n0:] + cond

        # Robin terms: both sides of every interface edge (at most one term
        # per entry)
        runs = mesh.interface_runs
        edge_pos = np.arange(n_ifc).reshape(-1, nds)
        sub = runs.pair[runs.run_of_edge].T[:, :, None]   # sides 0, 1
        lp = local(sub, edge_pos)
        self.robin = (sub[:, :, 0], lp,
                       np.multiply.outer([0.5, -0.5], robin))
        self.S[sub[..., None], lp[..., None], lp[..., None, :]] += \
            self.robin[2]

    def _condense(self, cs, merges, leaves, S_hat, gdof, bext, nds):
        """Run the plan on the subdomains ``cs`` (gdof: their slot -> free DOF
        map); stores each merge's (X, s_ids, b_ids) and returns the root
        stack (len(cs), n, n + 1) in the root's ``out`` order."""
        c, m3 = cs.size, S_hat.shape[1]
        n_dofs = bext.size - 1
        stacks = {}
        for t, (rel, perm) in enumerate(leaves):
            # one gather of the element blocks in [shared | own] order, at
            # flat offsets that pass 2^31 on large meshes (so int64); the
            # load column reads entry 0 and is then zeroed
            els = self.elems[cs][:, rel].T.ravel().astype(np.int64)
            flat = np.concatenate([perm[:, None] * m3 + perm,
                                   np.zeros((m3, 1), dtype=np.int64)], axis=1)
            leaf = np.take(S_hat.reshape(-1), els[:, None, None] * m3 * m3
                           + flat)
            leaf[:, :, m3] = 0.0
            stacks[(1, 1), t] = leaf
        msg = "interior block of subdomain %d is singular"
        for m in merges:
            A, B = stacks.pop((m.shape, 0)), stacks.pop((m.shape, 1))
            ns, N = len(m.shared) * nds, A.shape[0]
            na = A.shape[1] - ns
            nk = na + B.shape[1] - ns
            sid = gdof[:, m.s_slots].transpose(1, 0, 2).reshape(N, ns)
            bid = np.empty((N, nk + 1), dtype=gdof.dtype)
            bid[:, :nk] = gdof[:, m.b_slots].transpose(1, 0, 2).reshape(N, nk)
            bid[:, nk] = n_dofs + 1
            M = np.empty((N, ns, ns + nk + 1))
            np.add(A[:, :ns, :ns], B[:, :ns, :ns], out=M[:, :, :ns])
            M[:, :, ns:ns + na] = A[:, :ns, ns:-1]
            M[:, :, ns + na:-1] = B[:, :ns, ns:-1]
            M[:, :, -1] = A[:, :ns, -1] + B[:, :ns, -1] + bext[sid]
            tol = 1e-14 * np.maximum(np.abs(M[:, :, :ns]).max(axis=(1, 2)),
                                     1e-300)
            with np.errstate(divide="ignore", over="ignore",
                             invalid="ignore"):
                piv = _eliminate(M, ns)
            bad = ~(np.abs(piv).min(axis=1, initial=np.inf) >= tol)
            if bad.any():
                raise SubdomainError(msg % cs[bad.argmax() % c])
            X = M[:, :, ns:].copy()
            del M
            L = np.concatenate([A[:, ns:, :ns], B[:, ns:, :ns]], axis=1)
            U = np.matmul(np.negative(L, out=L), X)
            U[:, :na, :na] += A[:, ns:, ns:-1]
            U[:, :na, -1] += A[:, ns:, -1]
            U[:, na:, na:-1] += B[:, ns:, ns:-1]
            U[:, na:, -1] += B[:, ns:, -1]
            del A, B, L
            self.steps.append((X, sid, bid))
            for parent, j, first, count, perm in m.takes:
                flat = _flat_take(_dof_perm(perm, nds), nk)
                stacks[parent, j] = np.take(
                    U[first * c:(first + count) * c].reshape(count * c, -1),
                    flat, axis=1).reshape(count * c, nk, nk + 1)
        return U

    def __iter__(self):
        return (Subdomain(self, s) for s in range(self.nI.size))

    def __getitem__(self, s):
        return Subdomain(self, range(self.nI.size)[s])

    def extend(self, lamG, loaded=False):
        """Full free-DOF vector (lam_I, lamG) with A_II lam_I = b_I - A_IG lamG
        (``loaded``) or -A_IG lamG (the discrete harmonic extension): the
        merges' back-substitution x_s = y_s - X x_b, top-down."""
        n0, n = self.dofs.n_interior, self.dofs.n_dofs
        x = np.zeros(n + 2)
        x[n0:n] = lamG
        x[n + 1] = -1.0 if loaded else 0.0
        for X, sid, bid in reversed(self.steps):
            x[sid] = -np.matmul(X, x[bid][..., None])[..., 0]
        return x[:n]

    def apply(self, lamG):
        """S_Gamma lamG: a gather of every subdomain's interface values, one
        batched product with ``S`` and one scatter-add."""
        lamG = np.asarray(lamG, dtype=float)
        if lamG.shape != (self.n,):
            raise InvalidConfigError("interface vector has wrong length")
        x = np.append(lamG, 0.0)[self.pos]
        y = np.matmul(self.S, x[..., None])[..., 0]
        return np.bincount(self.pos.ravel(), y.ravel(),
                           minlength=self.n + 1)[:self.n]

    def as_dense(self):
        """Dense S_Gamma (the dense-Schur oracle of the tests), summed
        straight from the stack."""
        n1, P = self.n + 1, self.pos
        flat = (P[:, :, None] * n1 + P[:, None, :]).ravel()
        return np.bincount(flat, self.S.ravel(), minlength=n1 * n1) \
            .reshape(n1, n1)[:self.n, :self.n]

    def back_substitute(self, lamG):
        """Full free-DOF vector, interiors recovered from lamG and the load."""
        return self.extend(lamG, loaded=True)


def build_subdomains(mesh, dofs, spec, k, sys):
    """The torn interface layer of the assembled ``sys``, with its local
    Schur complements."""
    return Subdomains(sys, _robin_edge_matrices(mesh, spec, k))


def build_interface_operator(subs, dofs):
    """``subs``, which applies S_Gamma itself; ``dofs`` is not read.  Kept
    only for ``perfbench/pipeline.py``, as ``Mesh2d.subdomain_edges`` is."""
    return subs
