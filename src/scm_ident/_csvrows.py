"""Dataset CSV rows rendered exactly as ``%d`` and ``%.17g`` and read back, vectorised with numpy.

``'%.17g' % v`` costs about 400 ns per float in CPython, because 17
digits always take dtoa's bignum path. For a double with
1e-4 <= |v| < 1e16 the same correctly rounded digits follow from
fixed-width integer arithmetic, as in Ryu (Adams 2018), run over whole
arrays: write v = m * 2**e with a 53-bit m and let k = floor(log10 |v|);
the 17 digits are m * 5**(16 - k) * 2**(e + 16 - k) rounded half to even,
from a product of at most 102 bits built out of 32-bit halves. Such a
value prints in %g's fixed notation.

Each row is laid out in a NUL-padded uint8 matrix, one fixed-width slot
per cell ending in its separator, and ``bytes.translate`` deletes the
padding. Every other cell (zero, subnormal, |v| < 1e-4, |v| >= 1e16,
non-finite) holds ``%.17g`` in its slot instead, so the chunk's bytes are
a format that renders all of them in one call.

``parse_rows`` reads such rows back. For ``np.longdouble`` numpy's
``fromstring`` calls the C library's ``strtold``, which rounds a decimal
correctly to the x87 format's 64-bit significand and runs without the
GIL. Rounding that value to float64 gives the decimal's own correctly
rounded double unless it lies exactly on a midpoint between two doubles
(double rounding; Boldo & Melquiond 2008) or outside the range of normal
doubles, so exactly those cells are read again with Python's ``float``.
"""

import warnings
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np

from ._parallel import worker_count

_FAST_MIN, _FAST_LIMIT = 1e-4, 1e16  # normal doubles that %g prints in fixed notation
_LOW_DIGITS = 10**16  # the least 17-digit number
_POW5 = np.array([5**q for q in range(22)], dtype=np.uint64)  # 5**(16 - k), k = -5..16
_LOW32 = np.uint64(0xFFFFFFFF)

# A fast cell is 5 little-endian words of 4 lanes of 2 bytes, each lane
# a character and a slot for a point after it. The first word holds the
# prefix (sign, and "0." and zeros when k < 0) in 6 bytes and the lead
# digit in its last lane; the other 16 digits fill 4 words, and the slot
# of the last digit holds the separator.
_WORDS = 5
_CELL = 8 * _WORDS
_PREFIXES = np.frombuffer(  # by sign and -min(k, 0)
    b"".join(
        (sign + ("0." + "0" * (zeros - 1) if zeros else "")).encode().ljust(8, b"\0")
        for sign in ("", "-")
        for zeros in range(5)
    ),
    dtype="<u8",
).astype(np.uint64)
# each 4-digit group 0..9999 as one word, and the place in it of its
# last nonzero digit, 1..4 (-16 for 0, below any group's place)
_QUAD_DIGITS = np.arange(10_000, dtype=np.int16)[:, None] // np.array([1000, 100, 10, 1], np.int16)
_QUAD_DIGITS %= 10
_QUAD_TEXT = np.zeros((10_000, 8), np.uint8)
_QUAD_TEXT[:, ::2] = _QUAD_DIGITS
_QUAD_TEXT[:, ::2] += ord("0")
_QUADS = _QUAD_TEXT.view("<u8").ravel().astype(np.uint64, copy=False)
_QUAD_LAST = (4 - np.argmax(_QUAD_DIGITS[:, ::-1] != 0, axis=1)).astype(np.int8)
_QUAD_LAST[0] = -16
_GROUP_PLACES = np.arange(0, 16, 4)[:, None]  # digits before each group, after the lead digit
# the first n lanes of a word at [n + 20], n = -20..20 (n <= 0 keeps none, n >= 4 all)
_LANE_MASKS = np.array([(1 << 16 * min(max(n, 0), 4)) - 1 for n in range(-20, 21)], np.uint64)
_POINT = np.uint64(ord(".") << 8)
_SLOW_CELL = np.frombuffer(b"%.17g".ljust(8, b"\0"), "<u8")[0]


def _scaled(mantissa, exponent, k):
    """floor(mantissa * 2**exponent / 10**(k - 16)), twice the remainder, and the divisor.

    The remainder and the divisor count the bits shifted out, so an exact
    half shows as twice the remainder equal to the divisor.
    """
    power = _POW5[16 - k]
    shift = exponent + 16 - k
    m_high, m_low = mantissa >> 32, mantissa & _LOW32
    p_high, p_low = power >> 32, power & _LOW32
    cross = m_high * p_low + m_low * p_high  # < 2**54
    bottom = m_low * p_low
    low = bottom + (cross << 32)
    high = m_high * p_high + (cross >> 32) + (low < bottom)
    right = np.maximum(-shift, 0).astype(np.uint64)  # < 64: the product has at most 102 bits
    left = np.maximum(shift, 0).astype(np.uint64)
    # shifting by 63 and then by 1 stays defined at right == 0, where high is 0
    quotient = (((high << (63 - right)) << 1) | (low >> right)) << left
    divisor = np.uint64(1) << right
    return quotient, (low & (divisor - 1)) << 1, divisor


def _digits(values):
    """Each value's 17 correctly rounded significant digits, as int64, and its decimal exponent."""
    bits = values.view(np.uint64)
    mantissa = (bits & np.uint64((1 << 52) - 1)) | np.uint64(1 << 52)
    exponent = ((bits >> 52) & np.uint64(2047)).astype(np.int64) - 1075
    k = np.floor(np.log10(np.abs(values))).astype(np.int64)
    quotient, twice, divisor = _scaled(mantissa, exponent, k)
    # log10 can be one off next to a power of ten; the quotient shows which way
    below, above = quotient < _LOW_DIGITS, quotient >= 10 * _LOW_DIGITS
    wrong = np.flatnonzero(below | above)
    if wrong.size:
        k[wrong] += np.where(above[wrong], 1, -1)
        quotient[wrong], twice[wrong], divisor[wrong] = _scaled(
            mantissa[wrong], exponent[wrong], k[wrong]
        )
    digits = quotient + ((twice > divisor) | ((twice == divisor) & (quotient & 1).astype(bool)))
    carry = digits == 10 * _LOW_DIGITS
    digits[carry] = _LOW_DIGITS
    return digits.view(np.int64), k + carry


def _fixed(values):
    """``'%.17g' % v`` of each 1e-4 <= |v| < 1e16 as ``_WORDS`` rows of NUL-padded words.

    Word ``w`` of value ``i`` is ``[w, i]``; the separator byte is left NUL.
    """
    digits, k = _digits(values)
    lead = digits // _LOW_DIGITS
    rest = digits - lead * _LOW_DIGITS
    halves = np.empty((2, values.size), np.int64)
    halves[0] = rest // 10**8
    halves[1] = rest - halves[0] * 10**8
    groups = np.empty((4, values.size), np.int64)
    groups[0::2] = halves // 10**4
    groups[1::2] = halves - groups[0::2] * 10**4
    # the place of the last nonzero digit after the lead digit; < 0 for none
    final = (np.take(_QUAD_LAST, groups) + _GROUP_PLACES).max(axis=0)
    # digits run to the last nonzero one or the units digit, whichever is later
    kept = np.maximum(final, k) - _GROUP_PLACES + 20
    words = np.empty((_WORDS, values.size), np.uint64)
    words[1:] = np.take(_QUADS, groups) & np.take(_LANE_MASKS, kept)
    words[0] = np.take(_PREFIXES, 5 * (values < 0) - np.minimum(k, 0)) | (
        (lead + ord("0")).astype(np.uint64) << 48
    )
    # the point follows digit k when a nonzero digit comes after it
    pointed = np.flatnonzero((k >= 0) & (k < final))
    lane = k[pointed] + 3
    words.reshape(-1)[lane // 4 * values.size + pointed] |= _POINT << (16 * (lane & 3)).astype(
        np.uint64
    )
    return words


def _integers(values):
    """``'%d,' % v`` of each non-negative integer, NUL-padded to whole words."""
    digits = len(str(int(values.max())))
    quotients = values // 10 ** np.arange(digits - 1, -1, -1, dtype=np.int64)[:, None]
    text = np.zeros((values.size, 8 * (digits // 8 + 1)), np.uint8)
    text[:, :digits] = (quotients - quotients // 10 * 10 + ord("0")).T
    text[:, : digits - 1][(quotients[:-1] == 0).T] = 0  # leading zeros
    text[:, -1] = ord(",")
    return text


def render_rows(first, second, values) -> bytes:
    """Rows ``first,second,values...`` with the integers as ``%d`` and the floats as ``%.17g``.

    ``first`` and ``second`` hold non-negative integers, one per row of the
    2-d float64 array ``values``; there is at least one row.
    """
    rows, columns = values.shape
    integers = np.hstack([_integers(first), _integers(second)])
    start = integers.shape[1]  # the first float cell's byte
    line = np.zeros((rows, start + columns * _CELL), np.uint8)
    line[:, :start] = integers
    cells = line[:, start:].view("<u8").reshape(rows, columns, _WORDS)
    magnitude = np.abs(values)
    fast = (magnitude >= _FAST_MIN) & (magnitude < _FAST_LIMIT)
    cells[fast] = _fixed(values[fast]).T
    cells[~fast, 0] = _SLOW_CELL
    line[:, start + _CELL - 1 :: _CELL] = ord(",")
    line[:, -1] = ord("\n")
    # the text holds no other "%"
    return line.tobytes().translate(None, b"\0") % tuple(values[~fast].tolist())


def _strict_fromstring() -> bool:
    """Whether ``np.fromstring`` raises on text it cannot read to its end.

    Older numpy releases warn and return the cells read so far instead.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            np.fromstring(b"1x", np.longdouble, sep=",")
        except ValueError:
            return True
        except Warning:
            return False
    return False


# x87 extended precision in 16 bytes: a 64-bit significand word, then a
# word whose low 16 bits hold the sign and the 15-bit biased exponent
_X87 = (
    np.finfo(np.longdouble).nmant == 63
    and np.dtype(np.longdouble).itemsize == 16
    and _strict_fromstring()
)
_PIECE_BYTES = 1 << 16  # body bytes per parse task; bounds each thread's scratch arrays
_INT_LIMIT = 10**18  # env and sample values below it are exact in int64 and in 64 bits
_CANONICAL = b"0123456789,.-+eE\n"
# newlines become separators and every other byte outside the set a "!",
# which no float and no separator reads
_AS_CELLS = bytes(
    ord(",") if byte == ord("\n") else byte if byte in _CANONICAL else ord("!")
    for byte in range(256)
)
# by the half-word of sign and biased exponent: True outside [2**-1022, 2**1023),
# where a cast could underflow, overflow or round twice; exponent 0 (zero, or
# below 2**-16382) casts to +-0 as float() reads it
_REREAD_EXPONENT = np.ones((2, 1 << 15), bool)
_REREAD_EXPONENT[:, 0] = False
_REREAD_EXPONENT[:, 16383 - 1022 : 16383 + 1023] = False
_REREAD_EXPONENT = _REREAD_EXPONENT.ravel()


def _read_piece(data, width, env_ids, values, piece) -> bool:
    """Parse ``data[start:stop]``, whole lines, into ``env_ids[rows]`` and ``values[rows]``.

    Returns False, with any of those rows written, unless every line
    holds ``width`` cells: two of digits only, below 10**18, then floats.
    """
    start, stop, rows = piece
    count = rows.stop - rows.start
    text = data[start:stop].translate(_AS_CELLS)
    if b"!" in text:
        return False
    try:
        cells = np.fromstring(text, np.longdouble, sep=",")
    except ValueError:  # a cell that strtold does not read to its end, or an empty cell
        return False
    separators = np.flatnonzero(np.frombuffer(text, np.uint8) == ord(","))
    # one separator per cell, so no cell is empty
    if cells.size != count * width or separators.size != cells.size:
        return False
    separators = separators.reshape(count, width)
    first, last = separators[:, 0], separators[:, -1]
    # the piece has count newlines, so every line holds width cells exactly
    # when each line's last separator is its newline
    line = np.frombuffer(data, np.uint8, stop - start, start)
    if not (line[last] == ord("\n")).all():
        return False
    table = cells.reshape(count, width)
    if not (table[:, :2] < _INT_LIMIT).all():
        return False
    # the cells on either side of each line's first separator hold digits only
    bounds = np.empty((count, 4), np.intp)
    bounds[0, 0] = 0
    bounds[1:, 0] = last[:-1] + 1
    bounds[:, 1] = first
    bounds[:, 2] = first + 1
    bounds[:, 3] = separators[:, 1]
    not_digit = np.logical_or.reduceat(line - np.uint8(ord("0")) > 9, bounds.ravel())
    if not_digit[0::4].any() or not_digit[2::4].any():
        return False
    env_ids[rows] = table[:, 0]
    floats = table[:, 2:]
    halves = cells.view(np.uint16).reshape(count, width, 8)[:, 2:]
    # the low 11 bits of the significand a double drops, and the sign and exponent
    reread = np.nonzero(((halves[..., 0] & 0x7FF) == 0x400) | _REREAD_EXPONENT[halves[..., 4]])
    floats[reread] = 0  # the cast would round twice, underflow or overflow
    values[rows] = floats
    for row, column in zip(*reread):
        cell = slice(start + separators[row, column + 1] + 1, start + separators[row, column + 2])
        values[rows.start + row, column] = float(data[cell])
    return True


def parse_rows(data: bytes, start: int, width: int):
    """The env ids and float cells of the rows of ``width`` cells in ``data[start:]``.

    Returns ``(env_ids, values)``, int64 of shape (rows,) and float64 of
    shape (rows, width - 2), each cell's correctly rounded value, or None
    unless the body is canonical: only the bytes ``0-9 , . - + e E`` and
    newlines, a final newline, no blank line, ``width`` non-empty cells
    on every line, the first two of digits only with values below 10**18,
    and floats that ``strtold`` reads to their end; None also on hosts
    without x87 extended precision. Pieces of about ``_PIECE_BYTES`` run
    on one thread per CPU this process may run on.
    """
    if not _X87 or width < 3 or len(data) <= start or data[-1] != ord("\n"):
        return None
    pieces = []
    row = 0
    while start < len(data):
        stop = data.find(b"\n", start + _PIECE_BYTES) + 1 or len(data)
        count = data.count(b"\n", start, stop)
        pieces.append((start, stop, slice(row, row + count)))
        start, row = stop, row + count
    env_ids = np.empty(row, np.int64)
    values = np.empty((row, width - 2))
    read = partial(_read_piece, data, width, env_ids, values)
    with ThreadPoolExecutor(min(worker_count(), len(pieces))) as pool:
        parsed = all(pool.map(read, pieces))
        pool.shutdown(cancel_futures=True)
    return (env_ids, values) if parsed else None
