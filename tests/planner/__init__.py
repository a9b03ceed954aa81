"""Tests for the rule-based query planner."""
