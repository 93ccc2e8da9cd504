"""Test-only oracles: independent numeric routes the package is checked against."""
