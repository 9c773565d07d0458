"""The subsystem seam: parts of the Coordinator and their state images.

Every stateful piece of the Coordinator — the admin database, the
admission books and queue, the session/group tables, and each optional
subsystem manager — is a :class:`Part`.  A part owns, next to its state:

* persistence — ``SECTIONS``, the snapshot keys it writes
  (:meth:`Part.snapshot`) and replaces (:meth:`Part.load`); ``REPLAY``,
  its journal kinds as ``{kind: handler(part, payload)}``; and
  :meth:`Part.reconcile`, its MSU-wins pass when a restarted or
  promoted Coordinator reopens admissions;
* messages — the MSU/edge kinds it serves, set up by
  ``coord.install(kind, handler)`` when it is built;
* lifecycle — the no-op hooks :meth:`Part.note_request`,
  :meth:`Part.msu_failed`, :meth:`Part.handle_terminated` and
  :meth:`Part.activate`;
* books — :meth:`Part.held_allocations`, the admission charges it holds
  (what :mod:`repro.recovery.reconcile` rebuilds the books from).

The Coordinator keeps the parts it actually has in ``coord.parts``;
:mod:`repro.recovery.state`, :mod:`repro.recovery.reconcile` and the
Coordinator's demand, failure, termination and activation paths only
walk that list.

:func:`image` / :func:`from_image` are the codec for records whose
snapshot image is a plain copy of their dataclass fields: tuples become
lists, dicts keyed by anything but strings become sorted ``[key, value]``
lists, nested dataclasses nest, and a key missing from an image takes the
field's default.
"""

from __future__ import annotations

import dataclasses
import functools
import typing
from typing import Any, Callable, ClassVar, Dict, Iterable, Tuple

__all__ = ["Part", "image", "from_image"]


class Part:
    """One stateful piece of the Coordinator, persisted next to its state."""

    #: Top-level snapshot keys this part owns.  A key two parts share
    #: holds a dict, and each part writes only its own entries into it.
    SECTIONS: ClassVar[Tuple[str, ...]] = ()
    #: Journal record kind -> ``handler(part, payload)`` that repeats the
    #: logged mutation.
    REPLAY: ClassVar[Dict[str, Callable[[Any, dict], None]]] = {}

    def snapshot(self) -> dict:
        """``{section: JSON-safe image}`` of this part's durable state."""
        return {}

    def load(self, state: dict) -> None:
        """Replace this part's state with its sections of snapshot ``state``.

        A section that is missing (or None) restores the empty state, so
        loading into a used part and into a fresh one agree.
        """

    def reconcile(self, by_msu: dict, outcome) -> None:
        """Resolve replayed state MSU-wins against StateReports by MSU name."""

    def note_request(self, content_name: str) -> None:
        """Count one new play request (a retry is not one) for a title."""

    def msu_failed(self, msu_name: str) -> None:
        """Forget what died with an MSU; its books are already zeroed."""

    def handle_terminated(self, msg) -> bool:
        """True when this part fully handled an MSU's StreamTerminated."""
        return False

    def activate(self) -> None:
        """Start the background work a shadow suppressed until promoted."""

    def held_allocations(self) -> Iterable:
        """Every admission charge this part holds, in a fixed order."""
        return ()


def _same(value):
    return value


def _codec(hint) -> Tuple[Callable, Callable]:
    """``(encode, decode)`` for values of one annotated field type."""
    if dataclasses.is_dataclass(hint):
        return image, functools.partial(from_image, hint)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Union:  # Optional[X]
        enc, dec = _codec(next(a for a in args if a is not type(None)))
        return (
            lambda v: None if v is None else enc(v),
            lambda d: None if d is None else dec(d),
        )
    if origin is tuple and len(args) == 2 and args[1] is Ellipsis:
        enc, dec = _codec(args[0])
        return (
            lambda v: [enc(x) for x in v],
            lambda d: tuple(dec(x) for x in d),
        )
    if origin is tuple:
        codecs = [_codec(a) for a in args]
        return (
            lambda v: [enc(x) for (enc, _), x in zip(codecs, v)],
            lambda d: tuple(dec(x) for (_, dec), x in zip(codecs, d)),
        )
    if origin is dict:
        (kenc, kdec), (venc, vdec) = _codec(args[0]), _codec(args[1])
        if args[0] is str:
            return (
                lambda v: {k: venc(x) for k, x in v.items()},
                lambda d: {k: vdec(x) for k, x in d.items()},
            )
        return (
            lambda v: [[kenc(k), venc(x)] for k, x in sorted(v.items())],
            lambda d: {kdec(k): vdec(x) for k, x in d},
        )
    return _same, _same


_PLANS: Dict[type, tuple] = {}


def _plan(cls: type) -> tuple:
    plan = _PLANS.get(cls)
    if plan is None:
        hints = typing.get_type_hints(cls)
        plan = _PLANS[cls] = tuple(
            (f.name,) + _codec(hints[f.name]) for f in dataclasses.fields(cls)
        )
    return plan


def image(obj) -> dict:
    """JSON-safe image of a dataclass instance, one key per field."""
    return {
        name: enc(getattr(obj, name)) for name, enc, _dec in _plan(type(obj))
    }


def from_image(cls: type, data: dict):
    """Rebuild a ``cls`` instance from its :func:`image`."""
    return cls(**{
        name: dec(data[name]) for name, _enc, dec in _plan(cls) if name in data
    })
