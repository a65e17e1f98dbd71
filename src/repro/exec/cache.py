"""Object-attached caches that never outlive or escape their owner.

The runtime and the program layer both memoise derived artifacts of a
kernel (compiled interpreters, instrumented builds).  Keeping those in
a registry keyed by ``id(kernel)`` has two classic failure modes: the
registry pins the kernel (and everything the artifact references)
alive forever, and a recycled ``id`` can alias a dead kernel's entry.

:class:`EphemeralCache` solves both by living *on* the kernel object
itself: the cache dies with its owner (the owner→cache→artifact→owner
reference cycle is collected as one unit by the cycle collector), and
an entry can never describe a different object than the one it is
attached to.  The cache also deliberately refuses to travel:
``deepcopy`` (used by ``Kernel.clone`` in every translator pass) and
pickling (used when specs/results cross process boundaries) both
produce an *empty* cache, because compiled programs are built from
the original AST nodes and would be stale on a copy.
"""

from __future__ import annotations

from typing import Any


class EphemeralCache(dict):
    """A dict that resets to empty across ``deepcopy`` and pickling."""

    def __deepcopy__(self, memo: dict) -> "EphemeralCache":
        return EphemeralCache()

    def __copy__(self) -> "EphemeralCache":
        return EphemeralCache()

    def __reduce__(self):
        return (EphemeralCache, ())


def ephemeral_cache(owner: Any, attr: str) -> EphemeralCache:
    """The :class:`EphemeralCache` stored at ``owner.<attr>``, creating it.

    The attribute is set with plain ``setattr`` so it works on any
    object with a ``__dict__`` (dataclasses included) without having to
    declare the field — clones made before this feature existed simply
    start cold.
    """
    cache = owner.__dict__.get(attr)
    if cache is None:
        cache = EphemeralCache()
        setattr(owner, attr, cache)
    return cache
