"""Alert aggregation: native keywords → personal categories (§4.2).

"The user can also specify the mappings from those keywords to a set of
personalized alert category names.  For example, alert aggregation can be
achieved by mapping all of 'Stocks', 'Financial news', and 'Earnings
reports' to a single category called 'Investment'."

Sub-categorization for filtering (§4.2 "Alert filtering") is the same
mechanism pointed the other way: map "Sensor ON" and "Sensor OFF" to two
*different* categories so they can carry different delivery modes.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ConfigurationError


class CategoryAggregator:
    """Keyword → personal-category mapping with an optional default.

    The mapping is replaced, never changed in place, so :meth:`copy` can
    hand it to many aggregators and each one still changes only its own.
    """

    def __init__(self, default_category: Optional[str] = None):
        self._mapping: dict[str, str] = {}
        self.default_category = default_category

    def copy(self) -> "CategoryAggregator":
        """An aggregator with the same mapping and default."""
        twin = CategoryAggregator(self.default_category)
        twin._mapping = self._mapping
        return twin

    def map_keyword(self, keyword: str, category: str) -> None:
        """Route ``keyword`` into ``category`` (re-mapping is allowed — that
        is exactly the §3.3 dynamic-customization scenario)."""
        self.map_keywords([keyword], category)

    def map_keywords(self, keywords: list[str], category: str) -> None:
        """Aggregate several keywords into one category at once."""
        if not category or not all(keywords):
            raise ConfigurationError("keyword and category must be non-empty")
        self._mapping = {
            **self._mapping,
            **{keyword.casefold(): category for keyword in keywords},
        }

    def unmap_keyword(self, keyword: str) -> None:
        key = keyword.casefold()
        if key in self._mapping:
            self._mapping = {
                mapped: category
                for mapped, category in self._mapping.items()
                if mapped != key
            }

    def category_for(self, keyword: str) -> Optional[str]:
        """Resolve a native keyword to a personal category.

        Matching is case-insensitive (sources are sloppy about case).
        Returns the default category — possibly None — for unmapped
        keywords; MAB treats None as "drop with a note in the journal".
        """
        return self._mapping.get(keyword.casefold(), self.default_category)

    def keywords_for(self, category: str) -> list[str]:
        """All keywords currently aggregated into ``category``."""
        return sorted(
            keyword
            for keyword, mapped in self._mapping.items()
            if mapped == category
        )

    def known_categories(self) -> set[str]:
        categories = set(self._mapping.values())
        if self.default_category is not None:
            categories.add(self.default_category)
        return categories
