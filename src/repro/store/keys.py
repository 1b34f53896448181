"""Content addresses for trial results: canonical spec hashing.

A trial is a pure function of its :class:`~repro.engine.spec.TrialSpec`
(engine guarantee since PR 2), so the spec itself — not a run id, not a
timestamp — is the natural address of its result.  :func:`trial_key` derives
that address as a SHA-256 over the *canonical* spec payload:

* the payload is ``TrialSpec.to_dict()`` minus the fields that provably do
  not influence the outcome (:data:`VOLATILE_SPEC_FIELDS`): ``trial_index``
  is bookkeeping (the campaign position; seeds are carried explicitly on the
  spec, never derived from the index) and ``record_history`` only controls
  whether in-memory per-round states are retained — the serialised row is
  byte-identical either way.  Excluding them is what makes the cache work
  *across* runs: the same physical trial at a different grid position, or
  re-run without histories, resolves to the same address;
* values are normalised as by the spec module's JSON coercion (tuples
  become lists, numpy scalars become Python scalars) and serialised with
  sorted keys, so logically equal specs hash equally regardless of how their
  parameter mappings were spelled;
* the payload is salted with :data:`ENGINE_VERSION`.  Rows written by an
  older engine revision are thereby *unreachable* (a lookup under the new
  salt can never return them) rather than silently wrong —
  ``ResultStore.gc`` reclaims the dead space.

**Direct encoding.**  The payload is written field by field: the 16 key
fields in their fixed sorted order, each plain ``str`` / ``int`` / finite
``float`` / ``None`` / ``bool`` value formatted in place exactly as the
compact, sorted-key, ASCII-escaped ``json`` encoder writes it, and every
other value (the parameter mappings, numpy scalars, non-finite floats)
through :func:`~repro.engine.spec._jsonify` and that encoder.  A key is
derived once per trial of every stored campaign, so it builds no
intermediate dict.  The bytes are those of the plain derivation — the
spec's ``to_dict()`` minus the volatile fields, ``_jsonify``, then
sorted-key compact JSON — which ``tests/store/test_keys.py`` keeps as its
reference oracle, holds the encoder to by a property test, and pins by
golden digests.

**Bump discipline:** any change that alters what a spec executes to — a
protocol fix, a seed-derivation change, an adversary behaviour change, a new
field on the serialised row — must bump :data:`ENGINE_VERSION`.  Leaving it
alone asserts "every row ever stored under this salt is still exactly what
the current engine would produce".
"""

from __future__ import annotations

import hashlib
import json
from json.encoder import encode_basestring_ascii
from operator import attrgetter

from repro.engine.spec import _PARAM_FIELDS, TrialSpec, _jsonify
from repro.exceptions import ConfigurationError

__all__ = [
    "ENGINE_VERSION",
    "PACKAGE_VERSION",
    "VOLATILE_SPEC_FIELDS",
    "trial_key",
]

#: The package version.  ``pyproject.toml`` reads this literal (statically),
#: and it is the first half of :data:`ENGINE_VERSION`.
PACKAGE_VERSION = "1.1.0"

#: Salt folded into every trial key.  Format: ``<package version>/<row schema
#: revision>``; bump the revision whenever trial semantics or the serialised
#: row change (see the module docstring for the discipline).
ENGINE_VERSION = f"{PACKAGE_VERSION}/rows3"

#: Spec fields excluded from the key because they cannot influence the
#: serialised outcome row (see module docstring).
VOLATILE_SPEC_FIELDS = ("trial_index", "record_history")

# The canonical encoding of a non-plain value, built once: ``json.dumps``
# constructs a fresh encoder on every call whose separators are not the
# defaults.  The bytes are pinned by golden digests in
# ``tests/store/test_keys.py``.
_CANONICAL_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))

# The key fields in the order sorted-key JSON writes them, and the payload
# with one ``%s`` slot per field value.
_KEY_FIELDS = tuple(sorted(set(TrialSpec.WIRE_FIELDS) - set(VOLATILE_SPEC_FIELDS)))
_key_values = attrgetter(*_KEY_FIELDS)
_PAYLOAD = "{" + ",".join(f"{encode_basestring_ascii(name)}:%s" for name in _KEY_FIELDS) + "}"


def trial_key(spec: TrialSpec, engine_version: str = ENGINE_VERSION) -> str:
    """Return the content address (hex SHA-256) of ``spec``'s result.

    Two specs get the same key iff they execute to byte-identical rows under
    the engine revision named by ``engine_version`` — equal outcome-relevant
    fields, same salt.
    """
    texts = []
    try:
        for name, value in zip(_KEY_FIELDS, _key_values(spec)):
            kind = type(value)
            if kind is str:
                text = encode_basestring_ascii(value)
            elif kind is int:
                text = int.__repr__(value)
            elif value is None:
                text = "null"
            elif kind is float and value - value == 0.0:  # finite: NaN/inf fail
                text = float.__repr__(value)
            elif kind is bool:
                text = "true" if value else "false"
            elif name in _PARAM_FIELDS:
                text = _CANONICAL_JSON.encode(_jsonify(dict(value))) if value else "{}"
            else:
                text = _CANONICAL_JSON.encode(_jsonify(value))
            texts.append(text)
    except (TypeError, ValueError) as error:
        raise ConfigurationError(
            f"spec is not content-addressable (non-JSON parameter value): {error}"
        ) from error
    payload = _PAYLOAD % tuple(texts)
    digest = hashlib.sha256(f"{engine_version}\n{payload}".encode("utf-8"))
    return digest.hexdigest()
