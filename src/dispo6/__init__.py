"""Disposable Mobile IPv6 home addresses: protocol library and simulator.

A mobile host hands a different "disposable" home address to every
correspondent. When one address is abused (battery-drain floods, spam
calls), the owner blocks just that address at its home agent; everyone
else stays reachable. This package provides the protocol machinery
(home agent, mobile host, address-distribution handshake with CAPTCHA
escalation, certificateless short-authentication-string pairing), the
adversary and battery models, and a deterministic discrete-event
simulator with a scenario CLI.
"""

__version__ = "0.1.0"


class ConfigError(Exception):
    """Scenario configuration failed validation; message lists the problems.

    Defined here rather than in `scenario`, so that the CLI can report a
    bad argument without loading the scenario runner."""


class InvariantError(Exception):
    """A finished run broke a conservation invariant: a program fault.

    Defined here rather than in `scenario`, so that `dispo6 drain` can
    check its runs without loading the scenario runner."""
