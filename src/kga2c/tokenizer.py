"""Unigram-LM subword tokenizer.

Trains a piece inventory by expectation-maximization over segmentation
lattices, pruning the lowest likelihood-loss pieces each round until the
target vocabulary size is reached, and segments text by maximum-likelihood
Viterbi decoding.  Per-character fallback pieces are never pruned, so any
string over corpus characters stays segmentable; unseen characters map to the
unknown piece.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from itertools import groupby
from typing import Iterable, Sequence

BOUNDARY = "▁"  # word-boundary marker, prefixed to every word
PAD, UNK, START = "<pad>", "<unk>", "<start>"
SPECIALS = (PAD, UNK, START)
MAX_PIECE_LEN = 8
_FLOOR = 1e-6  # pseudo-count for specials and unused character pieces
EM_ITERATIONS = 2  # EM rounds after seeding and after each pruning round
PRUNE_FRACTION = 0.2  # share of the prunable pieces dropped per round


class TokenizerError(ValueError):
    pass


class SubwordModel:
    """Frozen piece inventory with log-probabilities.

    Piece ids: specials first (pad=0, unk=1, start=2), then the learned
    pieces in sorted order.
    """

    def __init__(self, log_probs: dict[str, float]):
        for s in SPECIALS:
            if s not in log_probs:
                raise TokenizerError(f"missing special piece {s!r}")
        self.pieces: list[str] = list(SPECIALS) + sorted(
            p for p in log_probs if p not in SPECIALS
        )
        self.log_probs = dict(log_probs)
        self.ids = {p: i for i, p in enumerate(self.pieces)}
        self.prune_trace: list[tuple[float, float]] = []

    def __len__(self) -> int:
        return len(self.pieces)

    @property
    def unk_id(self) -> int:
        return 1

    @property
    def start_id(self) -> int:
        return 2

    def piece(self, idx: int) -> str:
        if not 0 <= idx < len(self.pieces):
            raise TokenizerError(f"piece id out of range: {idx}")
        return self.pieces[idx]

    # -- persistence ---------------------------------------------------

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for p in self.pieces:
                fh.write(f"{p}\t{self.log_probs[p]!r}\n")

    @classmethod
    def load(cls, path) -> "SubwordModel":
        log_probs: dict[str, float] = {}
        order: list[str] = []
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if not line:
                    continue
                if "\t" not in line:
                    raise TokenizerError(f"line {lineno}: expected piece<TAB>logprob")
                piece, lp = line.split("\t", 1)
                log_probs[piece] = float(lp)
                order.append(piece)
        model = cls(log_probs)
        if model.pieces != order:
            raise TokenizerError("model file pieces out of canonical order")
        return model


def _marked_word_freqs(lines: Iterable[str]) -> Counter:
    freqs: Counter = Counter()
    for line in lines:
        for word in line.split():
            if word in SPECIALS:
                continue
            freqs[BOUNDARY + word] += 1
    return freqs


def _seed_candidates(word_freqs: Counter, cap: int) -> dict[str, float]:
    """Most frequent substrings (length <= MAX_PIECE_LEN) plus all characters."""
    chars: Counter = Counter()
    subs: Counter = Counter()
    for word, freq in word_freqs.items():
        n = len(word)
        for i in range(n):
            chars[word[i]] += freq
            for j in range(i + 2, min(i + MAX_PIECE_LEN, n) + 1):
                subs[word[i:j]] += freq
    ranked = sorted(subs.items(), key=lambda kv: (-kv[1], kv[0]))
    counts = dict(chars)
    for piece, freq in ranked[: max(cap - len(chars), 0)]:
        counts.setdefault(piece, freq)
    return {p: float(c) for p, c in counts.items()}


def _normalize(counts: dict[str, float]) -> dict[str, float]:
    total = sum(counts.values())
    return {p: math.log(c / total) for p, c in counts.items()}


def _word_lattice(word: str, log_probs: dict[str, float]):
    """Arcs (start, end, piece, logp) of every in-inventory substring."""
    n = len(word)
    arcs = []
    for i in range(n):
        for j in range(i + 1, min(i + MAX_PIECE_LEN, n) + 1):
            piece = word[i:j]
            lp = log_probs.get(piece)
            if lp is not None:
                arcs.append((i, j, piece, lp))
    return arcs


def _forward_backward(word: str, log_probs: dict[str, float]) -> tuple[dict[str, float], float]:
    """Expected piece counts and total log-likelihood for one word."""
    n = len(word)
    arcs = _word_lattice(word, log_probs)
    alpha = [-math.inf] * (n + 1)
    beta = [-math.inf] * (n + 1)
    alpha[0] = 0.0
    for i, j, _, lp in arcs:
        if alpha[i] > -math.inf:
            v = alpha[i] + lp
            alpha[j] = v if alpha[j] == -math.inf else _logadd(alpha[j], v)
    beta[n] = 0.0
    for i, j, _, lp in reversed(arcs):
        if beta[j] > -math.inf:
            v = beta[j] + lp
            beta[i] = v if beta[i] == -math.inf else _logadd(beta[i], v)
    z = alpha[n]
    counts: dict[str, float] = defaultdict(float)
    if z == -math.inf:
        return counts, z
    for i, j, piece, lp in arcs:
        if alpha[i] > -math.inf and beta[j] > -math.inf:
            counts[piece] += math.exp(alpha[i] + lp + beta[j] - z)
    return counts, z


def _logadd(a: float, b: float) -> float:
    if a < b:
        a, b = b, a
    return a + math.log1p(math.exp(b - a))


def _viterbi(
    word: str, log_probs: dict[str, float], banned: str | None = None
) -> tuple[float, list[str]]:
    """Best (log-likelihood, pieces); ties prefer fewer pieces, then the
    leftmost-longest segmentation.  Unknown characters are impossible here
    (training lattices only; encode handles them via the unk piece)."""
    n = len(word)
    NEG = -math.inf
    # best[i] = (score, piece count, end of the first piece) of word[i:].  The
    # first piece is scanned longest first and only a strictly better reading
    # replaces the held one, so among tied readings the longest first piece
    # stays: back-pointers spell the leftmost-longest segmentation.
    best = [(NEG, 0, 0)] * (n + 1)
    best[n] = (0.0, 0, n)
    for i in range(n - 1, -1, -1):
        cand = (NEG, 0, 0)
        for j in range(min(i + MAX_PIECE_LEN, n), i, -1):
            piece = word[i:j]
            if piece == banned:
                continue
            lp = log_probs.get(piece)
            if lp is None or best[j][0] == NEG:
                continue
            score = lp + best[j][0]
            pieces = best[j][1] + 1
            if score > cand[0] or (score == cand[0] and pieces < cand[1]):
                cand = (score, pieces, j)
        best[i] = cand
    if best[0][0] == NEG:
        return NEG, []
    out: list[str] = []
    i = 0
    while i < n:
        out.append(word[i:best[i][2]])
        i = best[i][2]
    return best[0][0], out


def train_unigram(corpus_lines: Sequence[str], target_size: int) -> SubwordModel:
    """Train a unigram piece inventory of exactly `target_size` pieces
    (fewer only if the corpus cannot seed that many candidates)."""
    word_freqs = _marked_word_freqs(corpus_lines)
    if not word_freqs:
        raise TokenizerError("empty corpus")
    chars = {c for w in word_freqs for c in w}
    floor_size = len(chars) + len(SPECIALS)
    if target_size < floor_size:
        raise TokenizerError(
            f"target size {target_size} below character floor {floor_size}"
        )

    cap = max(4 * target_size, floor_size)
    counts = _seed_candidates(word_freqs, cap)
    protected = set(chars)

    def sanitize(counts: dict[str, float]) -> dict[str, float]:
        """Drop underflowed pieces; character pieces are floored, never dropped."""
        out = {}
        for piece, c in counts.items():
            if piece in protected:
                out[piece] = max(c, _FLOOR)
            elif c > 1e-300:
                out[piece] = c
        return out

    def em(counts: dict[str, float]) -> dict[str, float]:
        log_probs = _normalize(sanitize(counts))
        for _ in range(EM_ITERATIONS):
            expected: dict[str, float] = defaultdict(float)
            for word, freq in word_freqs.items():
                word_counts, z = _forward_backward(word, log_probs)
                if z == -math.inf:
                    continue
                for piece, c in word_counts.items():
                    expected[piece] += freq * c
            log_probs = _normalize(
                sanitize({p: expected.get(p, 0.0) for p in log_probs})
            )
        return log_probs

    model_lp = em(counts)
    trace: list[tuple[float, float]] = []

    while len(model_lp) + len(SPECIALS) > target_size:
        prunable = [p for p in model_lp if p not in protected]
        if not prunable:
            break
        overshoot = len(model_lp) + len(SPECIALS) - target_size
        k = min(max(1, math.ceil(PRUNE_FRACTION * len(prunable))), overshoot)

        seg_cache: dict[str, tuple[float, list[str]]] = {}
        users: dict[str, list[str]] = defaultdict(list)
        for word in word_freqs:
            score, pieces = _viterbi(word, model_lp)
            seg_cache[word] = (score, pieces)
            for piece in set(pieces):
                users[piece].append(word)

        losses: dict[str, float] = {}
        for piece in prunable:
            loss = 0.0
            for word in users.get(piece, ()):
                with_score = seg_cache[word][0]
                without_score, _ = _viterbi(word, model_lp, banned=piece)
                loss += word_freqs[word] * (with_score - without_score)
            losses[piece] = loss

        ranked = sorted(prunable, key=lambda p: (losses[p], p))
        pruned = set(ranked[:k])
        kept_losses = [losses[p] for p in ranked[k:]]
        trace.append(
            (max((losses[p] for p in pruned), default=0.0),
             min(kept_losses, default=math.inf))
        )
        next_counts = {
            p: math.exp(lp) for p, lp in model_lp.items() if p not in pruned
        }
        model_lp = em(next_counts)

    log_probs = dict(model_lp)
    total = sum(math.exp(lp) for lp in log_probs.values()) + _FLOOR * len(SPECIALS)
    final = {p: math.log(math.exp(lp) / total) for p, lp in log_probs.items()}
    for s in SPECIALS:
        final[s] = math.log(_FLOOR / total)
    model = SubwordModel(final)
    model.prune_trace = trace
    return model


# ---------------------------------------------------------------------------
# Encoding / decoding


def encode(model: SubwordModel, text: str) -> list[int]:
    """Viterbi-segment text into piece ids.  Whitespace splits words; each
    word gets a boundary marker; unknown characters become the unk piece."""
    ids: list[int] = []
    for word in text.split():
        if word in SPECIALS:
            ids.append(model.ids[word])
            continue
        ids.extend(_encode_word(model, BOUNDARY + word))
    return ids


def _encode_word(model: SubwordModel, word: str) -> list[int]:
    # Split at unknown characters: known runs go through Viterbi, unknown
    # characters map to unk.
    out: list[int] = []
    for known, run in groupby(word, model.log_probs.__contains__):
        if known:
            out.extend(model.ids[p] for p in _viterbi("".join(run), model.log_probs)[1])
        else:
            out.extend(model.unk_id for _ in run)
    return out


def decode(model: SubwordModel, ids: Sequence[int]) -> str:
    """Concatenate pieces and restore word boundaries."""
    pieces = [model.piece(i) for i in ids]
    text = "".join(pieces).replace(BOUNDARY, " ")
    return text[1:] if text.startswith(" ") else text
