"""Property-based kernels tests (hypothesis): robustness invariants the
table-driven tests can't sweep."""

from hypothesis import given, settings
from hypothesis import strategies as st

from neurostore_text_extraction_ray.functions.hashing import (
    jaccard,
    minhash_params,
    minhash_signature,
    simhash64,
)
from neurostore_text_extraction_ray.functions.html_text import (
    html_to_text,
    html_to_text_and_spans,
)
from neurostore_text_extraction_ray.functions.normalize import (
    detect_abbreviations,
    find_and_remove_definitions,
    normalize_string,
    resolve_abbreviations,
)
from neurostore_text_extraction_ray.functions.textstats import (
    fingerprint64,
    word_count,
)

text_st = st.text(max_size=400)


@given(text_st)
@settings(max_examples=100, deadline=None)
def test_html_kernel_total(s):
    """Never raises on arbitrary input; plain text (no markup chars)
    passes through un-mangled."""
    out = html_to_text(s)
    assert isinstance(out, str)
    t, spans = html_to_text_and_spans(s)
    assert spans and spans[-1]["end"] <= len(t)
    for sp in spans:
        assert 0 <= sp["start"] <= sp["end"]


@given(text_st)
@settings(max_examples=100, deadline=None)
def test_normalize_string_total_and_idempotent(s):
    out = normalize_string(s)
    assert out is None or isinstance(out, str)
    if out is not None:
        # capwords output is a fixpoint
        assert normalize_string(out) == out


@given(text_st)
@settings(max_examples=50, deadline=None)
def test_abbrev_detection_offsets(s):
    for a in detect_abbreviations(s):
        assert s[a["short_start"]:a["short_end"]] == a["short_text"]
        assert s[a["long_start"]:a["long_end"]] == a["long_text"]


@given(text_st, text_st)
@settings(max_examples=50, deadline=None)
def test_resolve_and_remove_total(src, target):
    abbrevs = detect_abbreviations(src)
    out = resolve_abbreviations(target, abbrevs)
    assert out is None or isinstance(out, str)
    out2 = find_and_remove_definitions(target, abbrevs)
    assert len(out2.split()) <= len(target.split())


@given(st.lists(st.text(min_size=1, max_size=12), max_size=40))
@settings(max_examples=50, deadline=None)
def test_minhash_estimates_bounded(tokens):
    a, b = minhash_params(64)
    sig = minhash_signature(tokens, a, b)
    assert sig.shape == (64,)
    # identical input -> identical signature (determinism)
    assert (sig == minhash_signature(list(tokens), a, b)).all()


@given(text_st)
@settings(max_examples=50, deadline=None)
def test_fingerprint_whitespace_invariant(s):
    assert fingerprint64(s) == fingerprint64(" ".join(s.split()))
    assert word_count(s) == len(s.split())


@given(st.sets(st.integers(0, 50)), st.sets(st.integers(0, 50)))
@settings(max_examples=50, deadline=None)
def test_jaccard_bounds(a, b):
    j = jaccard(a, b)
    assert 0.0 <= j <= 1.0
    assert jaccard(a, a) == 1.0


@given(st.lists(st.text(min_size=1, max_size=8), max_size=30))
@settings(max_examples=50, deadline=None)
def test_simhash_deterministic(tokens):
    assert simhash64(tokens) == simhash64(list(tokens))


@given(st.lists(
    st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=255),
            min_size=1, max_size=60),
    min_size=1, max_size=5,
))
@settings(max_examples=60, deadline=None)
def test_pdf_roundtrip_property(texts):
    """Any latin-1 text block set round-trips through synthesize ->
    parse (both compressed and raw streams)."""
    from neurostore_text_extraction_ray.functions.pdf_text import (
        pdf_extract_blocks, synthesize_pdf)

    blocks = [
        {"x": 72, "y": 700 - 20 * i, "text": t} for i, t in enumerate(texts)
        if t.strip()
    ]
    for compress in (True, False):
        got = pdf_extract_blocks(synthesize_pdf(blocks, compress=compress))
        assert [b["text"] for b in got] == [b["text"] for b in blocks]


def _unescape_pdf_string_loop(raw: bytes) -> str:
    """The byte-at-a-time unescape that the regex form replaced."""
    out = bytearray()
    i = 0
    while i < len(raw):
        c = raw[i]
        if c == 0x5C and i + 1 < len(raw):  # backslash
            n = raw[i + 1]
            if n in b"nrtbf":
                out.extend({b"n"[0]: b"\n", b"r"[0]: b"\r", b"t"[0]: b"\t",
                            b"b"[0]: b"\b", b"f"[0]: b"\f"}[n])
                i += 2
            elif n in b"()\\":
                out.append(n)
                i += 2
            elif 0x30 <= n <= 0x37:  # octal, up to 3 digits
                j = i + 1
                oct_digits = b""
                while j < len(raw) and len(oct_digits) < 3 and 0x30 <= raw[j] <= 0x37:
                    oct_digits += bytes([raw[j]])
                    j += 1
                out.append(int(oct_digits, 8) & 0xFF)
                i = j
            else:
                out.append(n)
                i += 2
        else:
            out.append(c)
            i += 1
    return out.decode("latin-1")


@given(st.one_of(st.binary(max_size=40),
                 st.lists(st.sampled_from([b"\\", b"n", b"f", b"(", b"0", b"4",
                                           b"7", b"8", b"\n", b"\xff"]),
                          max_size=20).map(b"".join)))
@settings(max_examples=300, deadline=None)
def test_pdf_unescape_equals_byte_loop(raw):
    from neurostore_text_extraction_ray.functions.pdf_text import _unescape_pdf_string

    assert _unescape_pdf_string(raw) == _unescape_pdf_string_loop(raw)


@given(st.text(alphabet=st.characters(min_codepoint=0, max_codepoint=255)))
@settings(max_examples=200, deadline=None)
def test_pdf_string_escape_roundtrip(s):
    from neurostore_text_extraction_ray.functions.pdf_text import (
        _escape_pdf_string, _unescape_pdf_string)

    assert _unescape_pdf_string(_escape_pdf_string(s).encode("latin-1")) == s


_group_strat = st.fixed_dictionaries({
    "count": st.one_of(st.none(), st.floats(-50, 500, allow_nan=False)),
    "diagnosis": st.one_of(st.none(), st.text(max_size=20)),
    "group_name": st.one_of(st.none(), st.sampled_from(["healthy", "patients"])),
    "subgroup_name": st.one_of(st.none(), st.text(max_size=10)),
    "male_count": st.one_of(st.none(), st.floats(-10, 300, allow_nan=False)),
    "female_count": st.one_of(st.none(), st.floats(-10, 300, allow_nan=False)),
    "age_mean": st.one_of(st.none(), st.floats(0, 120, allow_nan=False)),
    "age_range": st.one_of(st.none(), st.text(max_size=8)),
    "age_minimum": st.one_of(st.none(), st.floats(0, 120, allow_nan=False)),
    "age_maximum": st.one_of(st.none(), st.floats(0, 120, allow_nan=False)),
    "age_median": st.one_of(st.none(), st.floats(0, 120, allow_nan=False)),
    "imaging_sample": st.one_of(st.none(), st.sampled_from(["yes", "no"])),
})


@given(st.lists(_group_strat, max_size=6))
@settings(max_examples=60, deadline=None)
def test_clean_groups_idempotent_and_invariant(groups):
    """The cleanup ladder is IDEMPOTENT (post-process-only mode re-runs
    it over already-cleaned output and must be a no-op) and enforces
    its invariants: counts clipped >= 0, group_name always set, a
    non-healthy group always carries a diagnosis."""
    from neurostore_text_extraction_ray.stages.llm import clean_groups

    once = clean_groups(groups)
    twice = clean_groups(once)
    assert once == twice
    for g in once:
        assert g["count"] is not None and g["count"] >= 0
        assert g["group_name"] in ("healthy", "patients")
        if g["group_name"] != "healthy":
            assert g["diagnosis"] is not None
        for c in ("male_count", "female_count"):
            assert g[c] is None or g[c] >= 0


@given(st.lists(st.integers(min_value=-2**62, max_value=2**62), min_size=1,
                max_size=200), st.integers(min_value=1, max_value=64))
@settings(max_examples=50, deadline=None)
def test_exchange_partition_total_and_stable(keys, num_parts):
    """int_part is total, in-range, and deterministic (the exchange
    relies on identical assignment across retries and processes)."""
    import numpy as np

    from neurostore_text_extraction_ray.stages.exchange import int_part

    arr = np.array(keys, dtype=np.int64)
    p1 = int_part([arr], num_parts)
    p2 = int_part([arr.copy()], num_parts)
    assert (p1 == p2).all()
    assert ((p1 >= 0) & (p1 < num_parts)).all()


@given(st.lists(st.integers(min_value=-2**63, max_value=2**63 - 1),
                min_size=1, max_size=200),
       st.integers(min_value=7, max_value=4096),
       st.integers(min_value=1, max_value=8))
@settings(max_examples=60, deadline=None)
def test_bloom_never_false_negative(keys, n_bits, k):
    """Every built key must probe True at ANY filter size / hash count
    — the Bloom guarantee the seen-set operator rests on."""
    import numpy as np

    from neurostore_text_extraction_ray.stages.sketch import (
        bloom_contains, build_bloom)

    ka = np.array(keys, dtype=np.int64)
    words = build_bloom(ka, n_bits, k)
    assert bloom_contains(words, ka, k).all()


@given(st.lists(st.integers(min_value=0, max_value=2**64 - 1),
                min_size=1, max_size=300),
       st.integers(min_value=1, max_value=16))
@settings(max_examples=40, deadline=None)
def test_bloom_sharded_layout_equals_per_shard_builds(keys, shards):
    """The seen-set's two paths at kernel level: the global word array
    assembled from shard*m_shard+idx bit positions must equal, segment
    by segment, the per-shard build_bloom over that shard's keys —
    THE invariant that makes the broadcast and exchange paths agree."""
    import numpy as np

    from neurostore_text_extraction_ray.stages.sketch import (
        bloom_indices, bloom_shard, build_bloom)

    m_shard = 1024  # multiple of 64 (bloom_round_bits fixpoint)
    k = 3
    ka = np.array(keys, dtype=np.uint64)
    shard = bloom_shard(ka, shards)
    # global layout (broadcast path)
    words_global = np.zeros(shards * (m_shard // 64), dtype=np.uint64)
    for idx in bloom_indices(ka, m_shard, k):
        g = shard * m_shard + idx
        np.bitwise_or.at(words_global, g >> 6,
                         np.uint64(1) << (g & 63).astype(np.uint64))
    # per-shard builds (exchange path)
    for s in range(shards):
        seg = words_global[s * (m_shard // 64):(s + 1) * (m_shard // 64)]
        local = build_bloom(ka[shard == s], m_shard, k)
        assert (seg == local).all()


@given(st.lists(st.text(alphabet="ab c", min_size=0, max_size=30),
                min_size=0, max_size=20),
       st.integers(min_value=1, max_value=9))
@settings(max_examples=100, deadline=None)
def test_pack_sequences_reference_conservation(texts, seq_len):
    """Driver-side reference of the packing semantics: token
    conservation (every token + one EOS per doc lands in exactly one
    sequence), full sequences are exactly seq_len, only the final one
    may be short, and concatenating the packed streams rebuilds the
    global token stream in order."""
    import re

    toks = []
    for t in texts:
        toks.extend(re.findall(r"\S+", t))
        toks.append("<eos>")
    seqs = [toks[i:i + seq_len] for i in range(0, len(toks), seq_len)]
    assert sum(len(s) for s in seqs) == len(toks)
    for s in seqs[:-1]:
        assert len(s) == seq_len
    rebuilt = [tok for s in seqs for tok in s]
    assert rebuilt == toks


@given(st.lists(st.tuples(st.text(alphabet="abcd", min_size=1, max_size=6),
                          st.integers(min_value=1, max_value=9)),
                min_size=0, max_size=12),
       st.integers(min_value=1, max_value=8))
@settings(max_examples=60, deadline=None)
def test_bpe_incremental_equals_naive_property(vocab, n_merges):
    """The incremental pair-index driver loop must equal the
    recount-everything reference on arbitrary small vocabularies
    (overlapping pairs, repeats, duplicate words with summed counts)."""
    import pandas as pd

    from neurostore_text_extraction_ray.stages import bpe

    # dedupe words, summing counts (the count combine does this upstream)
    agg = {}
    for w, c in vocab:
        agg[w] = agg.get(w, 0) + c
    words, counts = list(agg), [agg[w] for w in agg]

    def naive(words, counts, n):
        seqs = [tuple(w) + (bpe._EOW,) for w in words]
        rows = []
        for rank in range(n):
            pc = {}
            for s, c in zip(seqs, counts):
                for i in range(len(s) - 1):
                    pc[(s[i], s[i + 1])] = pc.get((s[i], s[i + 1]), 0) + c
            pc = {p: v for p, v in pc.items() if v > 0}
            if not pc:
                break
            best, bn = min(pc.items(), key=lambda kv: (-kv[1], kv[0]))
            rows.append((rank, best[0], best[1], bn))
            seqs = [bpe._merge_seq(s, *best) for s in seqs]
        return pd.DataFrame(
            rows, columns=["rank", "left", "right", "pair_count"])

    a = bpe._bpe_driver(words, counts, n_merges)
    b = naive(words, counts, n_merges)
    pd.testing.assert_frame_equal(a, b)


@given(st.lists(st.tuples(st.text(alphabet="abcde", min_size=1, max_size=8),
                          st.integers(min_value=1, max_value=5)),
                min_size=1, max_size=10))
@settings(max_examples=60, deadline=None)
def test_bpe_apply_reconstructs_words(vocab):
    """Applying any learned merge list never changes what the symbol
    sequence spells: concatenating the symbols of the encoded word
    always reproduces word + '</w>'."""
    from neurostore_text_extraction_ray.stages import bpe

    agg = {}
    for w, c in vocab:
        agg[w] = agg.get(w, 0) + c
    words, counts = list(agg), [agg[w] for w in agg]
    merges_df = bpe._bpe_driver(words, counts, 6)
    merges = list(zip(merges_df["left"], merges_df["right"]))
    for w in words:
        syms = bpe._apply_merges(tuple(w) + (bpe._EOW,), merges)
        assert "".join(syms) == w + bpe._EOW
