"""Domain name encoding: wire format, compression pointers, and 0x20 encoding.

0x20 encoding (Dagon et al., CCS 2008) hides entropy in the upper/lower case
of the query name; an honest resolver echoes the exact case back, so the case
pattern both adds forgery resistance and — in this reproduction, as in the
paper's domain scans — carries redundant bits of the per-resolver identifier.
"""

MAX_LABEL_LENGTH = 63
MAX_NAME_LENGTH = 255
_POINTER_MASK = 0xC0


class NameError_(ValueError):
    """Raised for malformed domain names on the wire."""


def normalize_name(name):
    """Lower-case a domain name and strip any trailing dot.

    All name comparisons in the library go through this helper, because DNS
    names are case-insensitive while 0x20 encoding deliberately mixes case.
    """
    return name.rstrip(".").lower()


def split_labels(name):
    """Split ``"www.example.com"`` into ``["www", "example", "com"]``."""
    name = name.rstrip(".")
    if not name:
        return []
    return name.split(".")


def encode_name(name):
    """Encode a domain name to RFC 1035 wire format (no compression)."""
    out = bytearray()
    for label in split_labels(name):
        raw = label.encode("ascii")
        if not raw:
            raise NameError_("empty label in %r" % name)
        if len(raw) > MAX_LABEL_LENGTH:
            raise NameError_("label too long in %r" % name)
        out.append(len(raw))
        out.extend(raw)
    out.append(0)
    if len(out) > MAX_NAME_LENGTH:
        raise NameError_("name too long: %r" % name)
    return bytes(out)


def decode_name(data, offset):
    """Decode a (possibly compressed) name starting at ``offset``.

    Returns ``(name, next_offset)`` where ``next_offset`` is the position
    immediately after the name in the original byte stream (pointers do not
    advance it past the pointer itself).
    """
    labels = []
    jumps = 0
    next_offset = None
    size = len(data)
    pos = offset
    while True:
        if pos >= size:
            raise NameError_("truncated name at offset %d" % offset)
        length = data[pos]
        if length < 0x40:
            pos += 1
            if length == 0:
                break
            end = pos + length
            if end > size:
                raise NameError_("truncated label")
            labels.append(data[pos:end])
            pos = end
        elif length >= _POINTER_MASK:
            if pos + 1 >= size:
                raise NameError_("truncated compression pointer")
            if next_offset is None:
                next_offset = pos + 2
            target = ((length & 0x3F) << 8) | data[pos + 1]
            if target >= pos:
                raise NameError_("forward compression pointer")
            jumps += 1
            if jumps > 64:
                raise NameError_("compression pointer loop")
            pos = target
        else:
            raise NameError_("reserved label type 0x%02x" % length)
    if next_offset is None:
        next_offset = pos
    # One decode for the whole name: ASCII decoding is per byte, so it
    # equals decoding label by label.
    return b".".join(labels).decode("ascii", "replace"), next_offset


class NameCompressor:
    """Tracks name offsets while building a message, emitting pointers."""

    def __init__(self):
        self._offsets = {}

    def encode(self, name, current_offset):
        """Encode ``name`` for a message position ``current_offset``.

        Uses a compression pointer when a suffix of the name has already
        been written at a pointer-reachable offset (< 0x4000).
        """
        offsets = self._offsets
        whole = normalize_name(name)
        known = offsets.get(whole)
        if known is not None:
            # Whole-name hit: the dominant case for answer records
            # echoing the question name — a bare two-byte pointer,
            # no label splitting at all.  Only reachable offsets are
            # ever stored, so no < 0x4000 re-check is needed.
            return bytes((_POINTER_MASK | (known >> 8), known & 0xFF))
        # The whole name first, so a name encode_name refuses is refused
        # here too; the loop below only decides where the pointer goes.
        wire = encode_name(name)
        labels = split_labels(name)
        # Normalised suffixes built once, right-to-left — the original
        # per-position join/normalize repeated tail work per label.
        suffixes = [whole] * len(labels)
        tail = ""
        for i in range(len(labels) - 1, 0, -1):
            tail = labels[i].lower() + ("." + tail if tail else tail)
            suffixes[i] = tail
        pos = 0
        for i, label in enumerate(labels):
            if i:
                known = offsets.get(suffixes[i])
                if known is not None:
                    return wire[:pos] + bytes(
                        (_POINTER_MASK | (known >> 8), known & 0xFF))
            if current_offset + pos < 0x4000:
                offsets[suffixes[i]] = current_offset + pos
            pos += len(label) + 1
        return wire


def apply_0x20(name, bits):
    """Apply a 0x20 case pattern to ``name``.

    ``bits`` is an integer whose binary digits select upper case (1) or
    lower case (0) for each alphabetic character of the name, least
    significant bit first.  Non-alphabetic characters are skipped and do not
    consume bits.
    """
    out = []
    i = 0
    for ch in name:
        if ch.isalpha():
            out.append(ch.upper() if (bits >> i) & 1 else ch.lower())
            i += 1
        else:
            out.append(ch)
    return "".join(out)


def recover_0x20_bits(name):
    """Recover the case-pattern integer from a 0x20-encoded name.

    Inverse of :func:`apply_0x20`; also returns the number of alphabetic
    positions so callers know how many bits are meaningful.
    """
    bits = 0
    count = 0
    for ch in name:
        if ch.isalpha():
            if ch.isupper():
                bits |= 1 << count
            count += 1
    return bits, count


def random_0x20_bits(name, rng):
    """Draw a random case pattern covering every letter of ``name``."""
    __, count = recover_0x20_bits(name)
    if count == 0:
        return 0
    return rng.getrandbits(count)


def matches_0x20(sent, received):
    """Check that a response name echoes the query's exact case pattern."""
    return sent == received and \
        normalize_name(sent) == normalize_name(received)
