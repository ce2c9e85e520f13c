"""Independent brute-force re-implementations used as test oracles.

Everything here is written with explicit per-pixel Python loops and math.*
so it shares no code path with the library's vectorized implementations.
"""

import math


def bilinear(data, x, y):
    """data is a (H, W) or (H, W, 2) array-like. Returns (value, in_bounds)."""
    h = len(data)
    w = len(data[0])
    if not (0.0 <= x <= w - 1 and 0.0 <= y <= h - 1):
        try:
            len(data[0][0])
            return (0.0, 0.0), False
        except TypeError:
            return 0.0, False
    x0 = min(int(math.floor(x)), w - 1)
    y0 = min(int(math.floor(y)), h - 1)
    x1 = min(x0 + 1, w - 1)
    y1 = min(y0 + 1, h - 1)
    fx = x - x0
    fy = y - y0

    def at(yy, xx):
        return data[yy][xx]

    def lerp(a, b, t):
        return a * (1 - t) + b * t

    v00, v01, v10, v11 = at(y0, x0), at(y0, x1), at(y1, x0), at(y1, x1)
    try:
        n = len(v00)
        value = tuple(
            lerp(lerp(v00[c], v01[c], fx), lerp(v10[c], v11[c], fx), fy)
            for c in range(n)
        )
    except TypeError:
        value = lerp(lerp(v00, v01, fx), lerp(v10, v11, fx), fy)
    return value, True


def block_upsample(params, block):
    """Upsample a coarse (h, w, 2) grid to (h*block, w*block, 2).

    Coarse cell i is centered at full-resolution coordinate (i + 0.5) * block
    - 0.5; a pixel outside the outermost centers takes the border value.
    """
    h, w = len(params), len(params[0])

    def coarse(i, n):
        return min(max((i + 0.5) / block - 0.5, 0.0), n - 1.0)

    return [[bilinear(params, coarse(x, w), coarse(y, h))[0] for x in range(w * block)]
            for y in range(h * block)]


def footprint_weighted_mean(values, mass, block):
    """Per coarse cell: sum of w * values over sum of w * mass, 0 where empty.

    values is (H, W, 2) and mass is (H, W); w is the cell's bilinear weight at
    each pixel under block_upsample's geometry.
    """
    h, w = len(mass) // block, len(mass[0]) // block
    num = [[[0.0, 0.0] for _ in range(w)] for _ in range(h)]
    den = [[0.0] * w for _ in range(h)]

    def corners(i, n):
        c = min(max((i + 0.5) / block - 0.5, 0.0), n - 1.0)
        i0 = min(int(math.floor(c)), n - 1)
        return ((i0, 1.0 - (c - i0)), (min(i0 + 1, n - 1), c - i0))

    for y in range(h * block):
        for x in range(w * block):
            for i, wy in corners(y, h):
                for j, wx in corners(x, w):
                    for ch in range(2):
                        num[i][j][ch] += wy * wx * values[y][x][ch]
                    den[i][j] += wy * wx * mass[y][x]
    return [[[num[i][j][ch] / den[i][j] if den[i][j] > 0 else 0.0 for ch in range(2)]
             for j in range(w)] for i in range(h)]


def cycle_check(fw, bw, gamma1, gamma2):
    """Per-pixel (numerator, denominator, target_in_bounds, matched) lists."""
    h, w = len(fw), len(fw[0])
    num = [[0.0] * w for _ in range(h)]
    den = [[0.0] * w for _ in range(h)]
    inb = [[False] * w for _ in range(h)]
    matched = [[False] * w for _ in range(h)]
    for y in range(h):
        for x in range(w):
            u, v = fw[y][x][0], fw[y][x][1]
            (bu, bv), ok = bilinear(bw, x + u, y + v)
            n = (u + bu) ** 2 + (v + bv) ** 2
            d = gamma1 * (u * u + v * v + bu * bu + bv * bv) + gamma2
            num[y][x], den[y][x], inb[y][x] = n, d, ok
            matched[y][x] = ok and n < d
    return num, den, inb, matched


def confidence_oa(fw, bw, gamma1, gamma2):
    num, den, inb, _ = cycle_check(fw, bw, gamma1, gamma2)
    h, w = len(fw), len(fw[0])
    return [[math.exp(-num[y][x] / den[y][x]) if inb[y][x] else 0.0
             for x in range(w)] for y in range(h)]


def confidence_db_flow(pred, gt, valid):
    h, w = len(pred), len(pred[0])
    out = [[0.0] * w for _ in range(h)]
    for y in range(h):
        for x in range(w):
            if valid[y][x]:
                e2 = (gt[y][x][0] - pred[y][x][0]) ** 2 + (gt[y][x][1] - pred[y][x][1]) ** 2
                out[y][x] = math.exp(-e2)
    return out


def confidence_db_stereo(pred, gt, valid):
    h, w = len(pred), len(pred[0])
    return [[math.exp(-((gt[y][x] - pred[y][x]) ** 2)) if valid[y][x] else 0.0
             for x in range(w)] for y in range(h)]


def weight(mode, m_db, m_oa, hard, a1, b1, a2, b2):
    db_term = a1 * (1.0 - m_db) ** b1
    oa_term = a2 * m_oa**b2
    if mode == "plain_l1":
        return 1.0
    if mode == "db":
        return 1.0 + db_term
    if mode == "oa":
        return 1.0 + oa_term
    if mode == "sum":
        return 1.0 + db_term + oa_term
    if mode == "multiplication":
        return 1.0 + db_term * oa_term
    if mode == "masking":
        return 1.0 + (db_term if hard else 0.0)
    if mode == "mask_sum":
        return 1.0 + (db_term if hard else 0.0) + oa_term
    raise ValueError(mode)


def weighted_l1_scalar(pred, gt, weights, valid):
    """Mean weighted L1 over valid pixels; pred/gt are (H, W, C) or (H, W)."""
    total = 0.0
    count = 0
    h, w = len(pred), len(pred[0])
    for y in range(h):
        for x in range(w):
            if not valid[y][x]:
                continue
            count += 1
            try:
                c = len(pred[y][x])
                l1 = sum(abs(gt[y][x][k] - pred[y][x][k]) for k in range(c))
            except TypeError:
                l1 = abs(gt[y][x] - pred[y][x])
            total += weights[y][x] * l1
    if count == 0:
        raise ZeroDivisionError("no valid pixels")
    return total / count


def epe(pred, gt):
    h, w = len(pred), len(pred[0])
    out = [[0.0] * w for _ in range(h)]
    for y in range(h):
        for x in range(w):
            try:
                c = len(pred[y][x])
                out[y][x] = math.sqrt(sum((pred[y][x][k] - gt[y][x][k]) ** 2
                                          for k in range(c)))
            except TypeError:
                out[y][x] = abs(pred[y][x] - gt[y][x])
    return out


def mean_over(e, sel):
    values = [e[y][x] for y in range(len(e)) for x in range(len(e[0])) if sel[y][x]]
    return sum(values) / len(values) if values else None


def outlier_rate(e, valid, threshold):
    n = bad = 0
    for y in range(len(e)):
        for x in range(len(e[0])):
            if valid[y][x]:
                n += 1
                if e[y][x] > threshold:
                    bad += 1
    return 100.0 * bad / n if n else None


def fl_all(e, mag, valid):
    n = bad = 0
    for y in range(len(e)):
        for x in range(len(e[0])):
            if valid[y][x]:
                n += 1
                if e[y][x] > 3.0 and e[y][x] > 0.05 * mag[y][x]:
                    bad += 1
    return 100.0 * bad / n if n else None


def speed_bins(e, mag, valid):
    sums = [0.0, 0.0, 0.0]
    counts = [0, 0, 0]
    for y in range(len(e)):
        for x in range(len(e[0])):
            if not valid[y][x]:
                continue
            m = mag[y][x]
            idx = 0 if m < 10.0 else (1 if m <= 40.0 else 2)
            sums[idx] += e[y][x]
            counts[idx] += 1
    return tuple(sums[i] / counts[i] if counts[i] else None for i in range(3))
