"""Domain types for multi-view texts and patterns.

A multi-view text is k aligned sequences of equal length n, each over its
own alphabet; the alphabets are pairwise disjoint, so every symbol
identifies the view it belongs to.  Patterns mix symbols from any view,
and a pattern symbol constrains only its own view at the aligned position
(the other views are masked there).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

# Dense interned ids.  Symbol ids are unique across all views; view ids
# index the view list.
SymbolId = int
ViewId = int


class MatchingError(Exception):
    """Base class for all domain errors raised by this package."""


class DisjointnessViolation(MatchingError):
    """A token was registered under two views (or twice in one view)."""

    def __init__(self, token: str, view_a: str, view_b: str):
        self.token = token
        self.view_a = view_a
        self.view_b = view_b
        super().__init__(
            f"token {token!r} appears in both view {view_a!r} and view {view_b!r};"
            " view alphabets must be disjoint"
        )


class UnknownSymbol(MatchingError):
    """A pattern token belongs to no registered alphabet."""

    def __init__(self, token: str):
        self.token = token
        super().__init__(f"token {token!r} is not in any registered alphabet")


class EmptyPattern(MatchingError):
    """Patterns must contain at least one symbol."""


class OutOfBounds(MatchingError):
    """A window position outside [0, n - m] was queried."""


class RegistryMismatch(MatchingError):
    """Text and pattern were interned against different registries."""


class AlphabetRegistry:
    """Interning table for the k disjoint view alphabets.

    Holds the total type function: every registered symbol maps to exactly
    one view and one token string.  Symbol ids are dense and assigned in the
    order ``view_alphabets`` is iterated, so pass ordered collections when id
    assignment must be reproducible.  Raises DisjointnessViolation if any
    token occurs under two views (or twice in the same view).
    """

    def __init__(self, view_names: Sequence[str], view_alphabets: Sequence[Iterable[str]]):
        if len(view_names) != len(view_alphabets):
            raise ValueError("view_names and view_alphabets must have equal length")
        if len(view_names) < 1:
            raise ValueError("at least one view is required")

        token_to_symbol: dict[str, SymbolId] = {}
        symbol_to_view: list[ViewId] = []
        symbol_to_token: list[str] = []
        for view, tokens in enumerate(view_alphabets):
            for token in tokens:
                if token in token_to_symbol:
                    prev = symbol_to_view[token_to_symbol[token]]
                    raise DisjointnessViolation(token, view_names[prev], view_names[view])
                token_to_symbol[token] = len(symbol_to_token)
                symbol_to_view.append(view)
                symbol_to_token.append(token)

        self.view_names = tuple(view_names)
        self.token_to_symbol = token_to_symbol
        self.symbol_to_view = tuple(symbol_to_view)
        self.symbol_to_token = tuple(symbol_to_token)

    @property
    def k(self) -> int:
        return len(self.view_names)

    @property
    def num_symbols(self) -> int:
        return len(self.symbol_to_token)

    def symbol_of(self, token: str) -> SymbolId:
        try:
            return self.token_to_symbol[token]
        except KeyError:
            raise UnknownSymbol(token) from None


class MultiViewText:
    """k aligned symbol sequences of common length n."""

    def __init__(self, views: tuple[tuple[SymbolId, ...], ...], registry: AlphabetRegistry):
        if len(views) != registry.k:
            raise ValueError(f"expected {registry.k} views, got {len(views)}")
        lengths = {len(v) for v in views}
        if len(lengths) > 1:
            raise ValueError(f"views have unequal lengths: {sorted(lengths)}")
        self.views = views
        self.registry = registry

    @property
    def n(self) -> int:
        return len(self.views[0])


class Pattern:
    """A resolved pattern: symbol ids plus the registry that interned them."""

    def __init__(self, symbols: tuple[SymbolId, ...], registry: AlphabetRegistry):
        if len(symbols) == 0:
            raise EmptyPattern("pattern must contain at least one symbol")
        self.symbols = symbols
        self.registry = registry

    @property
    def m(self) -> int:
        return len(self.symbols)

    def tokens(self) -> tuple[str, ...]:
        token_of = self.registry.symbol_to_token
        return tuple(token_of[s] for s in self.symbols)


def resolve_pattern(tokens: Sequence[str], registry: AlphabetRegistry) -> Pattern:
    """Map token strings to a Pattern; unknown tokens are an error, and so
    is an empty list (EmptyPattern, from Pattern)."""
    return Pattern(tuple(registry.symbol_of(t) for t in tokens), registry)


def occurs_at(text: MultiViewText, pattern: Pattern, i: int) -> bool:
    """Ground-truth occurrence predicate at 0-based window position i.

    True iff every pattern symbol equals the text symbol of its own view at
    the aligned position; the other views are ignored there.
    """
    if text.registry is not pattern.registry:
        raise RegistryMismatch("text and pattern were built against different registries")
    n = text.n
    m = pattern.m
    if i < 0 or i > n - m:
        raise OutOfBounds(f"position {i} outside [0, {n - m}]")
    views = text.views
    view_of = text.registry.symbol_to_view
    for j, sym in enumerate(pattern.symbols):
        if views[view_of[sym]][i + j] != sym:
            return False
    return True
