"""Desk-scale wake word spotting toolkit."""
