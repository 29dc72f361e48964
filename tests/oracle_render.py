"""Scalar per-pixel reference renderer.

Written independently of the tiled implementation: its own quaternion
algebra, its own projection, plain python loops over every pixel and every
Gaussian. Slow by design; used as the compositing oracle.
"""

import math

import numpy as np

NEAR, FAR = 0.05, 100.0     # view-depth range of the render contract


def _quat_mat(q):
    w, x, y, z = (float(v) for v in q)
    return [
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ]


def _mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def _transpose(a):
    return [list(row) for row in zip(*a)]


def reference_render(scene, cam):
    """Brute-force all-Gaussians per-pixel composite against the render contract."""
    h, w = cam.height, cam.width
    cx, cy, f = cam.width / 2.0, cam.height / 2.0, cam.focal

    r_cw = _quat_mat(cam.orientation)
    r_wc = _transpose(r_cw)

    splats = []
    for n in range(scene.count):
        p = scene.positions[n]
        rel = [float(p[i]) - float(cam.position[i]) for i in range(3)]
        pc = [sum(r_wc[i][k] * rel[k] for k in range(3)) for i in range(3)]
        z = pc[2]
        if z < NEAR or z > FAR:
            continue
        u = f * pc[0] / z + cx
        v = f * pc[1] / z + cy
        rot = _quat_mat(scene.rotations[n])
        s2 = [float(scene.scales[n][i]) ** 2 for i in range(3)]
        cov3 = _mat_mul(_mat_mul(rot, [[s2[0], 0, 0], [0, s2[1], 0], [0, 0, s2[2]]]),
                        _transpose(rot))
        jac = [[f / z, 0.0, -f * pc[0] / (z * z)],
               [0.0, f / z, -f * pc[1] / (z * z)]]
        m = _mat_mul(jac, r_wc)
        cov2 = _mat_mul(_mat_mul(m, cov3), _transpose(m))
        a = cov2[0][0] + 0.3
        b = cov2[0][1]
        c = cov2[1][1] + 0.3
        det = a * c - b * b
        inv = (c / det, -b / det, a / det)
        splats.append((z, u, v, inv, float(scene.opacities[n]),
                       [float(t) for t in scene.colors[n]],
                       [float(t) for t in scene.embeddings[n]]))
    splats.sort(key=lambda s: s[0])

    d = scene.embed_dim
    rgb = np.zeros((h, w, 3))
    feats = np.zeros((h, w, d))
    depth = np.full((h, w), np.inf)
    alpha_mask = np.zeros((h, w))
    for iy in range(h):
        py = iy + 0.5
        for ix in range(w):
            px = ix + 0.5
            trans = 1.0
            acc = 0.0
            for z, u, v, (ia, ib, ic), op, col, emb in splats:
                dx = px - u
                dy = py - v
                m2 = ia * dx * dx + 2 * ib * dx * dy + ic * dy * dy
                if m2 > 9.0:
                    continue
                alpha = op * math.exp(-0.5 * m2)
                if alpha > 0.99:
                    alpha = 0.99
                contrib = alpha * trans
                for k in range(3):
                    rgb[iy, ix, k] += contrib * col[k]
                for k in range(d):
                    feats[iy, ix, k] += contrib * emb[k]
                if acc < 0.5 <= acc + contrib:
                    depth[iy, ix] = z
                acc += contrib
                trans *= 1.0 - alpha
                if trans < 1e-4:
                    break
            alpha_mask[iy, ix] = acc
    return rgb, feats, depth, alpha_mask
