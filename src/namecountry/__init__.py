"""Proxy-nationality corpus construction and char-level name classification."""
