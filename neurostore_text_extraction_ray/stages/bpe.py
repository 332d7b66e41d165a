"""Distributed BPE merge learning (Sennrich et al. 2016, the public
byte-pair-encoding algorithm): learn the top-``n_merges`` merge
operations over the corpus word-frequency dictionary — the
tokenizer-training step of an LLM data pipeline.

The reference repo has no tokenizer-training stage (its token budgets
use a fixed cl100k-ish split, `ns_extract` embedding chunker); this
extends the token-counting family to the training-data mandate.

Semantics (deterministic):
- words = lowercase ``\\w+`` tokens (the ``top_terms`` tokenization),
  each a symbol sequence of its characters plus a final ``</w>``;
- per iteration, adjacent-symbol pair counts are summed weighted by
  word frequency; the winner is the max count with the
  lexicographically smallest ``(left, right)`` tie-break; the merge is
  applied greedily left-to-right and the next iteration continues on
  the merged sequences. Stops early when no pair remains.

Scale design — the corpus-sized pass is ONLY the word count (partial
``value_counts`` per batch through the gated ``grouped_sum_by_key``
combine); the BPE iterations run over the vocabulary, which is
language-bounded and orders of magnitude smaller than the corpus.
Below ``ROUTES['bpe_vocab']`` vocabulary rows the loop runs on the
driver with the classic incremental pair-index update (O(affected
words) per merge, not O(vocab)). Beyond it, ``_bpe_distributed``
hash-partitions the vocabulary once through the filesystem exchange
and per iteration: each part re-derives its words' current sequences
by applying the merges-so-far (broadcast, O(rank) per word), emits
(left, right, cnt) pair partials into the gated combine, each combined
block contributes its local argmax, and the driver reduces the
per-block winners (<= num blocks rows). Re-deriving costs
O(n_merges^2 * vocab/parts) total — the price of keeping every
iteration stateless over one immutable exchange; the vocabulary never
sits on the driver.

Tests force both routes to the exchange and assert merge-list
equality with the driver path."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from . import exchange as ex

_EOW = "</w>"

_MERGES_SCHEMA = pa.schema([
    ("rank", pa.int64()), ("left", pa.string()), ("right", pa.string()),
    ("pair_count", pa.int64()),
])


def _merge_seq(seq: tuple, a: str, b: str) -> tuple:
    """Greedy left-to-right single-pair merge (the BPE apply step)."""
    out = []
    i, n = 0, len(seq)
    while i < n:
        if i < n - 1 and seq[i] == a and seq[i + 1] == b:
            out.append(a + b)
            i += 2
        else:
            out.append(seq[i])
            i += 1
    return tuple(out)


def _apply_merges(seq: tuple, merges) -> tuple:
    for a, b in merges:
        if len(seq) < 2:
            break
        seq = _merge_seq(seq, a, b)
    return seq


def _bpe_driver(words, counts, n_merges: int) -> pd.DataFrame:
    """Classic incremental BPE over a (word, count) dictionary: pair
    counts plus a pair -> word-index inverted index, updated only for
    the words a merge touches."""
    seqs = [tuple(w) + (_EOW,) for w in words]
    counts = [int(c) for c in counts]
    pair_counts: dict = {}
    pair_words: dict = {}
    for idx, (s, c) in enumerate(zip(seqs, counts)):
        for i in range(len(s) - 1):
            p = (s[i], s[i + 1])
            pair_counts[p] = pair_counts.get(p, 0) + c
            pair_words.setdefault(p, set()).add(idx)
    rows = []
    for rank in range(n_merges):
        live = [(p, n) for p, n in pair_counts.items() if n > 0]
        if not live:
            break
        best, best_n = min(live, key=lambda kv: (-kv[1], kv[0]))
        rows.append((rank, best[0], best[1], best_n))
        for idx in sorted(pair_words.get(best, ())):
            s, c = seqs[idx], counts[idx]
            for i in range(len(s) - 1):
                p = (s[i], s[i + 1])
                pair_counts[p] -= c
                w = pair_words.get(p)
                if w is not None:
                    w.discard(idx)
            s = _merge_seq(s, best[0], best[1])
            seqs[idx] = s
            for i in range(len(s) - 1):
                p = (s[i], s[i + 1])
                pair_counts[p] = pair_counts.get(p, 0) + c
                pair_words.setdefault(p, set()).add(idx)
    return pd.DataFrame(rows,
                        columns=["rank", "left", "right", "pair_count"])


def _bpe_distributed(vocab_ds, n_merges: int) -> pd.DataFrame:
    """Scale path: vocabulary hash-partitioned once; each iteration is
    a stateless pair-count pass over the exchange parts with the
    merges-so-far broadcast. Only per-block argmax winners (and the
    gated pair combine) ever reach the driver."""
    import ray

    from ..pipelines.steps import grouped_sum_by_key
    from ..stages.broadcast import get_broadcast

    in_schema = pa.schema([("term", pa.string()), ("n", pa.int64())])
    partial_schema = pa.schema([
        ("left", pa.string()), ("right", pa.string()), ("cnt", pa.int64()),
    ])
    rows = []
    num_parts = ex.NUM_PARTS
    with ex.stage("nse_bpe_") as stage:
        ex.write_exchange(
            vocab_ds.map_batches(
                lambda b: b.select(["term", "n"]).cast(in_schema),
                batch_format="pyarrow"),
            stage,
            lambda b: ex.key_part(b, ["term"], num_parts))

        merges: list = []
        for rank in range(n_merges):
            merges_ref = ray.put(tuple(merges))

            def pair_partials(t: pa.Table) -> pa.Table:
                m = get_broadcast(merges_ref)
                ws = t["term"].to_pylist()
                cs = t["n"].to_numpy(zero_copy_only=False)
                pc: dict = {}
                for w, c in zip(ws, cs):
                    s = _apply_merges(tuple(w) + (_EOW,), m)
                    for i in range(len(s) - 1):
                        p = (s[i], s[i + 1])
                        pc[p] = pc.get(p, 0) + int(c)
                if not pc:
                    return partial_schema.empty_table()
                left, right = zip(*pc.keys())
                return pa.table({
                    "left": pa.array(list(left), pa.string()),
                    "right": pa.array(list(right), pa.string()),
                    "cnt": pa.array(list(pc.values()), pa.int64()),
                })

            gs = grouped_sum_by_key(
                ex.map_parts(stage, pair_partials,
                             partial_schema),
                ["left", "right"], ["cnt"], "bpe_pairs")

            def block_argmax(df: pd.DataFrame) -> pd.DataFrame:
                if df.empty:
                    return df
                return df.sort_values(
                    ["cnt", "left", "right"],
                    ascending=[False, True, True], kind="stable").head(1)

            cand = gs.map_batches(
                block_argmax, batch_format="pandas").to_pandas()
            cand = cand[cand["cnt"] > 0]
            if cand.empty:
                break
            best = cand.sort_values(
                ["cnt", "left", "right"],
                ascending=[False, True, True], kind="stable").iloc[0]
            merges.append((best["left"], best["right"]))
            rows.append((rank, best["left"], best["right"],
                         int(best["cnt"])))
    return pd.DataFrame(rows,
                        columns=["rank", "left", "right", "pair_count"])


def bpe_encode(docs_ds, merges, text_col: str = "text",
               id_col: str = "doc_id"):
    """Apply a learned merge list to every document: lowercase
    ``\\w+`` words each become their merged symbol sequence (with the
    trailing ``</w>``), concatenated in document order. Emits
    ``(id, n_bpe_tokens, bpe_text)`` where ``bpe_text`` is the
    space-joined symbol stream. Stateless vectorized-ish map — the
    merge list is parameter-sized (``n_merges`` rows, bounded by the
    caller, never corpus-sized) and ships once via ``ray.put``; each
    batch encodes its np.unique words once and scatters, so the
    per-batch cost is unique-words x merges, not tokens x merges."""
    import re as _re

    import ray

    from ..stages.broadcast import get_broadcast

    merges = tuple((str(a), str(b)) for a, b in merges)
    ref = ray.put(merges)
    tok_re = _re.compile(r"\w+")

    def encode(df: pd.DataFrame) -> pd.DataFrame:
        m = get_broadcast(ref)
        cache: dict = {}

        def enc_word(w: str) -> list:
            s = cache.get(w)
            if s is None:
                s = _apply_merges(tuple(w) + (_EOW,), m)
                cache[w] = s
            return s

        n_out = np.zeros(len(df), dtype=np.int64)
        texts = []
        for i, t in enumerate(df[text_col].fillna("")):
            syms = []
            for w in tok_re.findall(t.lower()):
                syms.extend(enc_word(w))
            n_out[i] = len(syms)
            texts.append(" ".join(syms))
        out = pd.DataFrame()
        out[id_col] = df[id_col]
        out["n_bpe_tokens"] = n_out
        out["bpe_text"] = texts
        return out

    return docs_ds.map_batches(encode, batch_format="pandas")


def bpe_learn(vocab_ds, n_merges: int):
    """Learn ``n_merges`` BPE merges from a (term, n) word-frequency
    Dataset. Returns a Dataset (rank, left, right, pair_count)."""
    import ray.data as rd

    if ex.fits("bpe_vocab", vocab_ds.count()):
        vocab = vocab_ds.to_pandas()
        if vocab.empty:  # zero-row datasets drop column metadata
            return rd.from_arrow(_MERGES_SCHEMA.empty_table())
        out = _bpe_driver(vocab["term"].tolist(),
                          vocab["n"].tolist(), n_merges)
    else:
        out = _bpe_distributed(vocab_ds, n_merges)
    if out.empty:
        return rd.from_arrow(_MERGES_SCHEMA.empty_table())
    return rd.from_arrow(
        pa.Table.from_pandas(out, schema=_MERGES_SCHEMA,
                             preserve_index=False))
