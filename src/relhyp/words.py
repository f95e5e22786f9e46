"""Words over paired-inverse alphabets.

A word is a tuple of symbol indices into an :class:`Alphabet`.  Generators
are named by lowercase strings and their inverses by the uppercase form, so
the symbol list for generators ``a, b`` is ``a A b B``.  Shortlex order on
words is (length, symbol index sequence) with that symbol order.
"""

from __future__ import annotations

from dataclasses import dataclass

Word = tuple[int, ...]


class Alphabet:
    """Generators plus formal inverses, with the index pairing baked in.

    Symbol 2i is the i-th generator, symbol 2i+1 its inverse.
    """

    def __init__(self, generators):
        generators = list(generators)
        if not generators:
            raise ValueError("alphabet needs at least one generator")
        seen = set()
        symbols = []
        for name in generators:
            if not name or not name.isalpha() or not name.islower():
                raise ValueError(f"generator name must be lowercase alphabetic: {name!r}")
            if name in seen or name.upper() in seen:
                raise ValueError(f"duplicate generator {name!r}")
            seen.add(name)
            seen.add(name.upper())
            symbols.append(name)
            symbols.append(name.upper())
        self.generators = tuple(generators)
        self.symbols = tuple(symbols)
        self._index = {s: i for i, s in enumerate(symbols)}

    def __len__(self):
        return len(self.symbols)

    def __eq__(self, other):
        return isinstance(other, Alphabet) and self.symbols == other.symbols

    def __repr__(self):
        return f"Alphabet({list(self.generators)!r})"

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"unknown symbol {name!r}") from None

    def parse(self, text: str) -> Word:
        """One letter per character; whitespace ignored."""
        return tuple(self.index(c) for c in text if not c.isspace())

    def to_str(self, word: Word) -> str:
        return "".join(self.symbols[i] for i in word)

    def generator_indices(self):
        return tuple(range(0, len(self.symbols), 2))


def free_reduce(word: Word) -> Word:
    """Delete adjacent inverse pairs until none remain (leftmost-first).

    The result is independent of the deletion order; the scan with a stack
    deletes leftmost-first in one pass.
    """
    out = []
    for sym in word:
        if out and out[-1] == (sym ^ 1):
            out.pop()
        else:
            out.append(sym)
    return tuple(out)


def word_inverse(word: Word) -> Word:
    return tuple((sym ^ 1) for sym in reversed(word))


def cyclic_permute(word: Word, t: int) -> Word:
    """Rotate so position t becomes first: x_t .. x_n x_1 .. x_{t-1} (0-based)."""
    if not word:
        return word
    t %= len(word)
    return word[t:] + word[:t]


@dataclass(frozen=True)
class Presentation:
    alphabet: Alphabet
    relators: tuple = ()
    # relators are stored freely reduced and must be nonempty words

    def __post_init__(self):
        rels = tuple(tuple(r) for r in self.relators)
        for r in rels:
            if not r:
                raise ValueError("empty relator")
            if free_reduce(r) != r:
                raise ValueError(f"relator not freely reduced: {r}")
            for sym in r:
                if not 0 <= sym < len(self.alphabet.symbols):
                    raise ValueError(f"relator symbol out of range: {sym}")
        object.__setattr__(self, "relators", rels)


def relator_forms(relators) -> tuple:
    """All cyclic rotations of each relator and of its inverse, deduplicated.

    These are exactly the words a single relator insertion may add.
    """
    forms = []
    seen = set()
    for r in relators:
        for w in (tuple(r), word_inverse(r)):
            for t in range(len(w)):
                f = free_reduce(cyclic_permute(w, t))
                if f and f not in seen:
                    seen.add(f)
                    forms.append(f)
    return tuple(forms)


def abelianization(alphabet: Alphabet, word: Word) -> tuple:
    """Exponent-sum vector over the generators."""
    vec = [0] * len(alphabet.generators)
    for sym in word:
        vec[sym >> 1] += -1 if sym & 1 else 1
    return tuple(vec)
