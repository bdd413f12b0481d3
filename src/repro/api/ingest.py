"""Program ingestion: every byte stream that becomes a :class:`Program`.

The service, the CLI, and the fuzz corpus all accept programs in the
same two encodings — kernel wire-format bytes and their hex spelling
(the JSON corpus encoding) — and they must reject malformed input the
same way.  This module is that single decode path: each helper maps a
raw encoding to a validated :class:`~repro.bpf.program.Program` or
raises :class:`IngestError`, a :class:`ValueError` that carries a
machine-readable ``code`` and the HTTP status class the service maps it
to.

The 400/422 split mirrors the exemplar service contract (see
``docs/service.md``): **400** means the bytes could not be decoded at
all (bad hex, truncated instruction, length not a multiple of 8,
field out of range); **422** means the bytes decoded into a program we
refuse to analyze (empty, oversized, structurally invalid jump
targets, out-of-range ctx size).
"""

from __future__ import annotations

import binascii
from typing import Dict, Optional

from repro.bpf import isa
from repro.bpf.insn import decode_program
from repro.bpf.program import Program, ProgramError
from repro.httpd import HttpError

__all__ = [
    "IngestError",
    "MAX_WIRE_BYTES",
    "MAX_CTX_SIZE",
    "DEFAULT_CTX_SIZE",
    "program_from_wire",
    "program_from_hex",
    "program_to_hex",
    "program_from_json_payload",
    "parse_ctx_size",
]

#: Upper bound on accepted wire payloads: every instruction occupies at
#: most two 8-byte slots and the verifier caps programs at
#: :data:`~repro.bpf.isa.MAX_INSNS` instructions, so anything larger
#: cannot decode into an acceptable program anyway.
MAX_WIRE_BYTES = 8 * 2 * isa.MAX_INSNS

#: Context sizes beyond this are configuration mistakes, not workloads —
#: real kernel ctx structs are a few hundred bytes.
MAX_CTX_SIZE = 65536

DEFAULT_CTX_SIZE = 64


class IngestError(HttpError, ValueError):
    """A rejected program submission, with a structured reason.

    ``status`` is the HTTP status class the service answers with (400
    for undecodable bytes, 422 for decodable-but-unacceptable programs)
    and ``code`` is a stable kebab-case identifier clients can switch
    on; ``str(err)`` stays the human-readable message.
    """

    def to_payload(self) -> Dict:
        return {"code": self.code, "message": self.message}


def program_from_wire(data: bytes) -> Program:
    """Decode kernel wire-format bytes into a validated ``Program``."""
    if not data:
        raise IngestError(422, "empty-program", "program has no instructions")
    if len(data) > MAX_WIRE_BYTES:
        raise IngestError(
            422, "program-too-large",
            f"program is {len(data)} bytes; the wire-format limit is "
            f"{MAX_WIRE_BYTES} ({isa.MAX_INSNS} instructions)",
        )
    try:
        insns = decode_program(data)
    except ValueError as exc:
        raise IngestError(
            400, "bad-wire-format", f"undecodable wire bytes: {exc}"
        ) from exc
    try:
        return Program(insns)
    except ProgramError as exc:
        raise IngestError(
            422, "invalid-program", f"structurally invalid program: {exc}"
        ) from exc


def program_from_hex(text: str) -> Program:
    """Decode the hex spelling of wire bytes (the JSON corpus encoding)."""
    if not isinstance(text, str):
        raise IngestError(
            400, "bad-encoding",
            f"program hex must be a string, not {type(text).__name__}",
        )
    try:
        data = bytes.fromhex(text.strip())
    except (ValueError, binascii.Error) as exc:
        raise IngestError(
            400, "bad-encoding", f"invalid hex encoding: {exc}"
        ) from exc
    return program_from_wire(data)


def program_to_hex(program: Program) -> str:
    """The inverse of :func:`program_from_hex` (corpus/JSON encoding)."""
    return program.to_bytes().hex()


def program_from_json_payload(payload: Dict) -> Program:
    """Extract the program from a JSON request/corpus-entry object.

    Accepts ``program_hex`` (the service's canonical key) or
    ``bytecode_hex`` (the corpus-entry spelling), so a corpus entry can
    be POSTed to ``/verify`` verbatim.
    """
    if not isinstance(payload, dict):
        raise IngestError(
            400, "bad-request",
            f"request body must be a JSON object, "
            f"not {type(payload).__name__}",
        )
    for key in ("program_hex", "bytecode_hex"):
        if key in payload:
            return program_from_hex(payload[key])
    raise IngestError(
        400, "missing-program",
        "request has no program: expected a 'program_hex' (or corpus-style "
        "'bytecode_hex') field of kernel wire-format bytes as hex",
    )


def parse_ctx_size(
    value: object, default: Optional[int] = DEFAULT_CTX_SIZE
) -> int:
    """Validate a ctx-size field from a request (JSON value or query string)."""
    if value is None:
        if default is None:
            raise IngestError(422, "bad-ctx-size", "ctx_size is required")
        return default
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise IngestError(
            422, "bad-ctx-size",
            f"ctx_size must be an integer, not {type(value).__name__}",
        )
    try:
        ctx_size = int(value)
    except ValueError:
        raise IngestError(
            422, "bad-ctx-size", f"ctx_size {value!r} is not an integer"
        ) from None
    if not 0 <= ctx_size <= MAX_CTX_SIZE:
        raise IngestError(
            422, "bad-ctx-size",
            f"ctx_size {ctx_size} out of range [0, {MAX_CTX_SIZE}]",
        )
    return ctx_size
