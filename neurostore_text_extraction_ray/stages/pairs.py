"""Distributed candidate-pair machinery for the near-dup family.

At web-scale duplicate rates (30-50% of a crawl) neither the candidate
pairs, the per-endpoint payloads (signatures / shingle sets / vectors),
nor the duplicate-component map fit on the driver. This module keeps
all three distributed:

- ``verify_pairs``: the classic two-round exchange join. Payloads are
  hash-partitioned by id ONCE; pairs are partitioned by ``hash(a)``,
  joined with the a-side payload per part, re-partitioned by
  ``hash(b)``, joined with the b-side payload, and verified inside the
  part. Only verified edges (two int64s each) leave the exchange.

- ``label_components_exchanged``: connected components as iterative
  min-label propagation through the exchange (edges stored directed
  both ways, partitioned by source ONCE; per iteration each part sends
  ``min(label[src])`` messages to neighbors and takes the min). This
  converges in <= component-diameter iterations — LSH near-dup
  components are bucket-clique unions with tiny diameters — and
  replaces the round-2 driver union-find + ``max_pairs`` RuntimeError
  (VERDICT r02 next-round #1).

- ``label_ids``: final (id -> component label) assignment for ALL ids,
  as a co-partitioned left join with identity fallback.

Driver-side fast paths for sandbox-scale inputs live in
``stages/dedup.py``; these functions are the beyond-the-guard routes
and are equivalence-tested against them (tests/test_pairs.py).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from . import exchange as ex

PAIR_SCHEMA = pa.schema([("a", pa.int64()), ("b", pa.int64())])
PAYLOAD_SCHEMA = pa.schema([("id", pa.int64()), ("payload", pa.binary())])
LABEL_SCHEMA = pa.schema([("node", pa.int64()), ("label", pa.int64())])

# rounds taken by the last label_components_exchanged call (observability
# + the pointer-jumping O(log n) convergence test)
LAST_LABEL_ROUNDS = 0

# min-label propagation needs <= component-diameter rounds; near-dup
# components (unions of LSH-bucket cliques) have tiny diameters, but a
# gradual-drift chain can be arbitrarily deep, so the loop runs to
# CONVERGENCE — the cap below is only a bug backstop, set to the node
# count (propagation provably converges within diameter < n rounds)


def _by(col: str, num_parts: int):
    """Partition function on one int64 column."""
    def f(b: pa.Table) -> np.ndarray:
        return ex.int_part(
            [b[col].to_numpy(zero_copy_only=False).astype(np.int64)], num_parts
        )

    return f


def pairs_to_ds(pairs: pd.DataFrame):
    """(a, b) pandas -> Dataset (the driver->exchange on-ramp)."""
    import ray.data as rd

    return rd.from_arrow(pa.table({
        "a": pa.array(pairs["a"].to_numpy(dtype=np.int64) if len(pairs) else [],
                      pa.int64()),
        "b": pa.array(pairs["b"].to_numpy(dtype=np.int64) if len(pairs) else [],
                      pa.int64()),
    }))


def verify_pairs(pairs_ds, payload_ds, verify_fn, out_schema: pa.Schema,
                 num_parts: int = 32):
    """Attach both endpoints' payloads to every candidate pair and
    verify per part; returns a MATERIALIZED Dataset of ``out_schema``.

    ``pairs_ds``: Dataset (a, b) int64 — may contain duplicates (e.g.
    the same pair surfaced by several LSH bands); they are dropped in
    the a-side part, where all copies co-locate.
    ``payload_ds``: Dataset (id, payload[binary]) — one row per id.
    ``verify_fn(df)``: pandas (a, b, payload_a, payload_b) -> pa.Table
    of ``out_schema``; runs once per part, so vectorize inside.
    """
    mid_schema = pa.schema(
        [("a", pa.int64()), ("b", pa.int64()), ("payload_a", pa.binary())]
    )
    with (ex.stage("nse_vp_pay_") as pay_stage,
          ex.stage("nse_vp_a_") as a_stage,
          ex.stage("nse_vp_b_") as b_stage):
        ex.write_exchange(payload_ds, pay_stage, _by("id", num_parts))
        ex.write_exchange(pairs_ds, a_stage, _by("a", num_parts))

        def attach_a(pairs_t: pa.Table, pay_t: pa.Table) -> pa.Table:
            pdf = pairs_t.to_pandas().drop_duplicates(["a", "b"])
            pay = pay_t.to_pandas().rename(
                columns={"id": "a", "payload": "payload_a"})
            m = pdf.merge(pay, on="a", how="inner")
            return pa.Table.from_pandas(
                m[["a", "b", "payload_a"]], schema=mid_schema,
                preserve_index=False)

        mid = ex.map_parts([a_stage, pay_stage], num_parts, attach_a,
                           mid_schema, in_schemas=[PAIR_SCHEMA, PAYLOAD_SCHEMA])
        ex.write_exchange(mid, b_stage, _by("b", num_parts))

        def attach_b_verify(mid_t: pa.Table, pay_t: pa.Table) -> pa.Table:
            mdf = mid_t.to_pandas()
            pay = pay_t.to_pandas().rename(
                columns={"id": "b", "payload": "payload_b"})
            m = mdf.merge(pay, on="b", how="inner")
            return verify_fn(m)

        return ex.map_parts(
            [b_stage, pay_stage], num_parts, attach_b_verify, out_schema,
            in_schemas=[mid_schema, PAYLOAD_SCHEMA])


def label_components_exchanged(edges_ds, num_parts: int = 32):
    """Verified edges (a, b) -> MATERIALIZED Dataset (node, label) with
    label = min id of the node's connected component. Nodes not in any
    edge are absent (callers default them to themselves via
    ``label_ids``). The edge stage lives for the whole call; every
    round re-partitions the previous round's materialized labels into
    its own stages."""
    dir_schema = pa.schema([("src", pa.int64()), ("dst", pa.int64())])
    msg_schema = pa.schema([("node", pa.int64()), ("cand", pa.int64())])
    upd_schema = pa.schema(
        [("node", pa.int64()), ("label", pa.int64()), ("changed", pa.int64())]
    )

    def to_directed(b: pa.Table) -> pa.Table:
        a = b["a"].to_numpy(zero_copy_only=False).astype(np.int64)
        bb = b["b"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "src": pa.array(np.concatenate([a, bb]), pa.int64()),
            "dst": pa.array(np.concatenate([bb, a]), pa.int64()),
        })

    # initial labels: every node labels itself. Each node's outgoing
    # edges co-locate in its hash part, so per-part unique(src) IS a
    # global partition of the node set.
    def init_labels(edges_t: pa.Table) -> pa.Table:
        nodes = np.unique(
            edges_t["src"].to_numpy(zero_copy_only=False).astype(np.int64))
        return pa.table({
            "node": pa.array(nodes, pa.int64()),
            "label": pa.array(nodes, pa.int64()),
        })

    # each part: message min(label[src]) to every neighbor
    def emit(labels_t: pa.Table, edges_t: pa.Table) -> pa.Table:
        lab = labels_t.to_pandas().rename(columns={"node": "src"})
        df = edges_t.to_pandas().merge(lab, on="src", how="inner")
        g = df.groupby("dst", sort=False)["label"].min().reset_index()
        return pa.table({
            "node": pa.array(g["dst"].to_numpy(dtype=np.int64), pa.int64()),
            "cand": pa.array(g["label"].to_numpy(dtype=np.int64),
                             pa.int64()),
        })

    def shortcut(bylab_t: pa.Table, labels_t: pa.Table) -> pa.Table:
        a = bylab_t.to_pandas()  # (node, label) by hash(label)
        b = labels_t.to_pandas().rename(
            columns={"node": "label", "label": "label2"})
        m = a.merge(b, on="label", how="inner")  # int64: no NaN
        m = m[m["label2"] < m["label"]]  # productive only
        g = m.groupby("node", sort=False)["label2"].min().reset_index()
        return pa.table({
            "node": pa.array(g["node"].to_numpy(dtype=np.int64), pa.int64()),
            "cand": pa.array(g["label2"].to_numpy(dtype=np.int64),
                             pa.int64()),
        })

    def update(labels_t: pa.Table, msg_t: pa.Table) -> pa.Table:
        # pure-int64 join (a pandas left merge would go through float64
        # NaN and silently round labels above 2^53 — web-scale ids are
        # 64-bit hashes)
        nodes = labels_t["node"].to_numpy(zero_copy_only=False)
        labels = labels_t["label"].to_numpy(zero_copy_only=False).copy()
        order = np.argsort(nodes, kind="stable")
        nodes_s, labels_s = nodes[order], labels[order]
        m = (msg_t.to_pandas().groupby("node", sort=False)["cand"]
             .min().reset_index())
        m_nodes = m["node"].to_numpy(dtype=np.int64)
        m_cands = m["cand"].to_numpy(dtype=np.int64)
        pos = np.clip(np.searchsorted(nodes_s, m_nodes), 0,
                      max(0, len(nodes_s) - 1))
        # every message target is a node of this part by construction
        # (directed edges partition by src); the hit mask guards
        # minimum.at against corrupting a neighbor slot if that
        # invariant is ever violated
        hit = len(nodes_s) > 0
        ok = (nodes_s[pos] == m_nodes) if hit else np.zeros(
            len(m_nodes), dtype=bool)
        labels_new = labels_s.copy()
        np.minimum.at(labels_new, pos[ok], m_cands[ok])
        changed = labels_new < labels_s
        return pa.table({
            "node": pa.array(nodes_s, pa.int64()),
            "label": pa.array(labels_new, pa.int64()),
            "changed": pa.array(changed.astype(np.int64), pa.int64()),
        })

    with ex.stage("nse_cc_edges_") as edges_stage:
        ex.write_exchange(
            edges_ds.map_batches(to_directed, batch_format="pyarrow"),
            edges_stage, _by("src", num_parts))
        labels_ds = ex.map_parts(edges_stage, num_parts, init_labels,
                                 LABEL_SCHEMA)
        it = 0
        while True:
            it += 1
            with (ex.stage("nse_cc_lab_") as labels_stage,
                  ex.stage("nse_cc_msg_") as msg_stage):
                ex.write_exchange(labels_ds, labels_stage,
                                  _by("node", num_parts))
                msgs = ex.map_parts([labels_stage, edges_stage], num_parts,
                                    emit, msg_schema,
                                    in_schemas=[LABEL_SCHEMA, dir_schema])

                # pointer-jumping shortcut: also message label[label[n]]
                # to n, giving O(log n) rounds on chain components
                # instead of O(diameter). Labels re-partitioned by
                # hash(label) land in the part that holds the label
                # node's own label row; the propagated value is always a
                # label within the same component, so correctness
                # (monotone min) is unchanged. Round 1 is skipped —
                # labels are all self-labels there, so label[label[n]]
                # == n and every message would be a no-op.
                if it > 1:
                    with ex.stage("nse_cc_bylab_") as bylab_stage:
                        ex.write_exchange(labels_ds, bylab_stage,
                                          _by("label", num_parts))
                        sc = ex.map_parts(
                            [bylab_stage, labels_stage], num_parts,
                            shortcut, msg_schema,
                            in_schemas=[LABEL_SCHEMA, LABEL_SCHEMA])
                    # one msg stage: update() min-combines edge +
                    # shortcut candidates in one pass
                    msgs = msgs.union(sc)
                ex.write_exchange(msgs, msg_stage, _by("node", num_parts))

                upd = ex.map_parts([labels_stage, msg_stage], num_parts,
                                   update, upd_schema,
                                   in_schemas=[LABEL_SCHEMA, msg_schema])
            n_nodes = upd.count()
            n_changed = upd.sum("changed") if n_nodes else 0
            labels_ds = upd.map_batches(
                lambda b: b.drop_columns(["changed"]), batch_format="pyarrow")
            if not n_changed:
                break
            if it > n_nodes + 1:
                raise RuntimeError(
                    "component labeling exceeded the provable convergence "
                    f"bound ({n_nodes} nodes, {it} rounds) — exchange bug")
    global LAST_LABEL_ROUNDS
    LAST_LABEL_ROUNDS = it
    return labels_ds.materialize()


def label_ids(ids_ds, labels_ds, id_col: str, out_id_name: str,
              num_parts: int = 32, label_name: str = "dup_group"):
    """Co-partitioned left join: every id gets its component label,
    defaulting to itself (singletons). Returns a MATERIALIZED Dataset
    (out_id_name, label_name)."""
    ids_schema = pa.schema([(id_col, pa.int64())])
    out_schema = pa.schema([(out_id_name, pa.int64()), (label_name, pa.int64())])
    with (ex.stage("nse_lab_ids_") as ids_stage,
          ex.stage("nse_lab_map_") as lab_stage):
        ex.write_exchange(
            ids_ds.map_batches(lambda b: b.select([id_col]),
                               batch_format="pyarrow"),
            ids_stage, _by(id_col, num_parts))
        ex.write_exchange(labels_ds, lab_stage, _by("node", num_parts))

        def join(ids_t: pa.Table, lab_t: pa.Table) -> pa.Table:
            # pure-int64 searchsorted join with identity fallback — a
            # pandas left merge would round labels above 2^53 through
            # its float64 NaN path
            idv = ids_t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
            nodes = lab_t["node"].to_numpy(zero_copy_only=False)
            labels = lab_t["label"].to_numpy(zero_copy_only=False)
            order = np.argsort(nodes, kind="stable")
            nodes_s, labels_s = nodes[order], labels[order]
            out = idv.copy()
            if len(nodes_s):
                pos = np.clip(np.searchsorted(nodes_s, idv), 0,
                              len(nodes_s) - 1)
                hit = nodes_s[pos] == idv
                out[hit] = labels_s[pos[hit]]
            return pa.table({
                out_id_name: pa.array(idv, pa.int64()),
                label_name: pa.array(out, pa.int64()),
            })

        return ex.map_parts([ids_stage, lab_stage], num_parts, join,
                            out_schema,
                            in_schemas=[ids_schema, LABEL_SCHEMA])
