"""The paper's reported numbers, transcribed from Tables 2-7.

Used by the experiment harness to print paper-vs-measured comparisons
and by the benchmark suite to check reproduced *shapes* (orderings,
ratios) rather than absolute values — our substrate is a profile-matched
synthetic circuit suite, not the original ISCAS89 netlists (DESIGN.md §3).

Times are stored in seconds (converted from the paper's h/m notation).
``None`` marks entries the paper leaves blank ("-").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple


def _h(x: float) -> float:
    return x * 3600.0


def _m(x: float) -> float:
    return x * 60.0


@dataclass(frozen=True)
class Table2Row:
    """One circuit's row of Table 2 (HITEC vs GA)."""

    circuit: str
    pis: int
    seq_depth: int
    total_faults: int
    hitec_det: Optional[int]
    hitec_vec: Optional[int]
    hitec_time_s: Optional[float]
    ga_det: float
    ga_det_std: float
    ga_vec: int
    ga_vec_std: int
    ga_time_s: float

    @property
    def ga_coverage(self) -> float:
        """GA fault coverage fraction."""
        return self.ga_det / self.total_faults

    @property
    def hitec_coverage(self) -> Optional[float]:
        """HITEC fault coverage (None where the paper leaves blanks)."""
        if self.hitec_det is None:
            return None
        return self.hitec_det / self.total_faults


TABLE2: Dict[str, Table2Row] = {
    r.circuit: r
    for r in [
        Table2Row("s298", 3, 8, 308, 265, 306, _h(4.44), 264.7, 0.5, 161, 28, _m(6.05)),
        Table2Row("s344", 9, 6, 342, 328, 142, _h(1.33), 329.0, 0.0, 95, 14, _m(5.85)),
        Table2Row("s349", 9, 6, 350, 335, 137, _m(52.2), 335.0, 0.0, 95, 14, _m(5.83)),
        Table2Row("s382", 3, 11, 399, 363, 4931, _h(12.0), 347.0, 1.2, 281, 27, _m(8.91)),
        Table2Row("s386", 7, 5, 384, 314, 311, _m(1.03), 295.2, 2.2, 154, 24, _m(3.45)),
        Table2Row("s400", 3, 11, 426, 383, 4309, _h(12.1), 365.1, 2.7, 280, 26, _m(9.45)),
        Table2Row("s444", 3, 11, 474, 414, 2240, _h(16.1), 405.7, 1.7, 275, 21, _m(10.5)),
        Table2Row("s526", 3, 11, 555, 365, 2232, _h(46.8), 416.7, 4.8, 281, 42, _m(14.3)),
        Table2Row("s641", 35, 6, 467, 404, 216, _m(18.0), 404.0, 0.0, 139, 31, _m(8.24)),
        Table2Row("s713", 35, 6, 581, 476, 194, _m(1.52), 476.0, 0.0, 128, 7, _m(9.41)),
        Table2Row("s820", 18, 4, 850, 813, 984, _h(1.61), 516.5, 29.2, 146, 17, _m(13.4)),
        Table2Row("s832", 18, 4, 870, 817, 981, _h(1.76), 539.0, 32.1, 150, 17, _m(12.3)),
        Table2Row("s1196", 14, 4, 1242, 1239, 453, _m(1.53), 1232, 3, 347, 45, _m(11.6)),
        Table2Row("s1238", 14, 4, 1355, 1283, 478, _m(2.20), 1274, 3, 383, 40, _m(16.0)),
        Table2Row("s1423", 17, 10, 1515, None, None, None, 1222, 51, 663, 103, _h(2.83)),
        Table2Row("s1488", 8, 5, 1486, 1444, 1294, _h(3.60), 1392, 32, 243, 26, _m(25.2)),
        Table2Row("s1494", 8, 5, 1506, 1453, 1407, _h(1.91), 1416, 20, 245, 39, _m(23.2)),
        Table2Row("s5378", 35, 36, 4603, None, None, None, 3175, 53, 511, 54, _h(6.08)),
        Table2Row("s35932", 35, 35, 39094, 34902, 240, _h(3.80), 35009, 51, 197, 43, _h(105.2)),
    ]
}

#: Table 3 — detected faults per (selection scheme, crossover) cell.
#: Keys: circuit -> scheme -> crossover -> detected.
#: Schemes: roulette, sus, tournament (no replacement), tournament-r.
TABLE3: Dict[str, Dict[str, Dict[str, float]]] = {
    "s298": {
        "roulette": {"1-point": 264.1, "2-point": 264.1, "uniform": 264.0},
        "sus": {"1-point": 264.8, "2-point": 264.8, "uniform": 264.1},
        "tournament": {"1-point": 264.2, "2-point": 264.3, "uniform": 264.7},
        "tournament-r": {"1-point": 264.3, "2-point": 264.8, "uniform": 264.9},
    },
    "s386": {
        "roulette": {"1-point": 294.2, "2-point": 293.0, "uniform": 295.5},
        "sus": {"1-point": 296.6, "2-point": 296.1, "uniform": 297.8},
        "tournament": {"1-point": 294.6, "2-point": 296.7, "uniform": 295.2},
        "tournament-r": {"1-point": 297.3, "2-point": 296.2, "uniform": 295.9},
    },
    "s526": {
        "roulette": {"1-point": 419.7, "2-point": 419.7, "uniform": 417.8},
        "sus": {"1-point": 422.0, "2-point": 414.7, "uniform": 417.9},
        "tournament": {"1-point": 415.6, "2-point": 417.2, "uniform": 416.7},
        "tournament-r": {"1-point": 416.7, "2-point": 418.3, "uniform": 419.5},
    },
    "s820": {
        "roulette": {"1-point": 501.2, "2-point": 478.4, "uniform": 514.3},
        "sus": {"1-point": 502.9, "2-point": 497.4, "uniform": 524.1},
        "tournament": {"1-point": 520.4, "2-point": 519.6, "uniform": 516.5},
        "tournament-r": {"1-point": 527.9, "2-point": 527.5, "uniform": 504.5},
    },
    "s832": {
        "roulette": {"1-point": 512.0, "2-point": 503.7, "uniform": 506.6},
        "sus": {"1-point": 500.6, "2-point": 515.9, "uniform": 512.5},
        "tournament": {"1-point": 522.2, "2-point": 516.4, "uniform": 539.0},
        "tournament-r": {"1-point": 516.4, "2-point": 502.1, "uniform": 514.7},
    },
    "s1196": {
        "roulette": {"1-point": 1228, "2-point": 1228, "uniform": 1232},
        "sus": {"1-point": 1229, "2-point": 1228, "uniform": 1231},
        "tournament": {"1-point": 1227, "2-point": 1229, "uniform": 1232},
        "tournament-r": {"1-point": 1227, "2-point": 1225, "uniform": 1230},
    },
    "s1238": {
        "roulette": {"1-point": 1270, "2-point": 1272, "uniform": 1274},
        "sus": {"1-point": 1273, "2-point": 1271, "uniform": 1275},
        "tournament": {"1-point": 1269, "2-point": 1272, "uniform": 1274},
        "tournament-r": {"1-point": 1268, "2-point": 1272, "uniform": 1275},
    },
    "s1423": {
        "roulette": {"1-point": 1243, "2-point": 1229, "uniform": 1257},
        "sus": {"1-point": 1210, "2-point": 1243, "uniform": 1223},
        "tournament": {"1-point": 1242, "2-point": 1219, "uniform": 1222},
        "tournament-r": {"1-point": 1250, "2-point": 1227, "uniform": 1212},
    },
    "s1488": {
        "roulette": {"1-point": 1363, "2-point": 1381, "uniform": 1352},
        "sus": {"1-point": 1378, "2-point": 1360, "uniform": 1367},
        "tournament": {"1-point": 1392, "2-point": 1390, "uniform": 1392},
        "tournament-r": {"1-point": 1380, "2-point": 1388, "uniform": 1395},
    },
    "s1494": {
        "roulette": {"1-point": 1357, "2-point": 1362, "uniform": 1361},
        "sus": {"1-point": 1352, "2-point": 1401, "uniform": 1394},
        "tournament": {"1-point": 1412, "2-point": 1388, "uniform": 1416},
        "tournament-r": {"1-point": 1384, "2-point": 1391, "uniform": 1408},
    },
    "s5378": {
        "roulette": {"1-point": 3169, "2-point": 3160, "uniform": 3216},
        "sus": {"1-point": 3124, "2-point": 3183, "uniform": 3167},
        "tournament": {"1-point": 3175, "2-point": 3165, "uniform": 3175},
        "tournament-r": {"1-point": 3168, "2-point": 3150, "uniform": 3180},
    },
}

#: Table 4 — detected faults per mutation rate (sequence phase).
TABLE4: Dict[str, Dict[str, float]] = {
    "s298": {"1/16": 264.4, "1/32": 264.8, "1/64": 264.7, "1/128": 264.8, "1/256": 264.3},
    "s386": {"1/16": 296.1, "1/32": 296.8, "1/64": 295.2, "1/128": 296.1, "1/256": 295.5},
    "s820": {"1/16": 510.7, "1/32": 509.0, "1/64": 516.5, "1/128": 510.4, "1/256": 510.3},
    "s832": {"1/16": 533.5, "1/32": 533.6, "1/64": 539.0, "1/128": 533.5, "1/256": 533.1},
    "s1196": {"1/16": 1231, "1/32": 1230, "1/64": 1232, "1/128": 1231, "1/256": 1230},
    "s1238": {"1/16": 1274, "1/32": 1275, "1/64": 1274, "1/128": 1276, "1/256": 1274},
    "s1423": {"1/16": 1216, "1/32": 1226, "1/64": 1222, "1/128": 1244, "1/256": 1258},
    "s1488": {"1/16": 1394, "1/32": 1394, "1/64": 1392, "1/128": 1393, "1/256": 1391},
    "s1494": {"1/16": 1416, "1/32": 1415, "1/64": 1416, "1/128": 1418, "1/256": 1417},
    "s5378": {"1/16": 3204, "1/32": 3159, "1/64": 3175, "1/128": 3175, "1/256": 3192},
}

#: Table 5 — detected faults: coding (bin/non) x population (16/32/64).
TABLE5: Dict[str, Dict[Tuple[str, int], float]] = {
    "s298": {("bin", 16): 264.6, ("non", 16): 263.6, ("bin", 32): 264.7,
             ("non", 32): 264.4, ("bin", 64): 264.8, ("non", 64): 264.9},
    "s386": {("bin", 16): 294.4, ("non", 16): 294.0, ("bin", 32): 295.2,
             ("non", 32): 294.8, ("bin", 64): 296.5, ("non", 64): 295.8},
    "s526": {("bin", 16): 416.1, ("non", 16): 416.1, ("bin", 32): 416.7,
             ("non", 32): 416.7, ("bin", 64): 417.4, ("non", 64): 417.0},
    "s820": {("bin", 16): 507.4, ("non", 16): 508.3, ("bin", 32): 516.5,
             ("non", 32): 508.4, ("bin", 64): 509.0, ("non", 64): 510.0},
    "s832": {("bin", 16): 533.0, ("non", 16): 534.6, ("bin", 32): 539.0,
             ("non", 32): 533.5, ("bin", 64): 533.4, ("non", 64): 534.2},
    "s1196": {("bin", 16): 1228, ("non", 16): 1223, ("bin", 32): 1232,
              ("non", 32): 1228, ("bin", 64): 1233, ("non", 64): 1229},
    "s1238": {("bin", 16): 1273, ("non", 16): 1262, ("bin", 32): 1274,
              ("non", 32): 1267, ("bin", 64): 1277, ("non", 64): 1273},
    "s1423": {("bin", 16): 1196, ("non", 16): 1202, ("bin", 32): 1222,
              ("non", 32): 1219, ("bin", 64): 1246, ("non", 64): 1266},
    "s1488": {("bin", 16): 1389, ("non", 16): 1386, ("bin", 32): 1392,
              ("non", 32): 1387, ("bin", 64): 1396, ("non", 64): 1395},
    "s1494": {("bin", 16): 1416, ("non", 16): 1413, ("bin", 32): 1416,
              ("non", 32): 1416, ("bin", 64): 1417, ("non", 64): 1415},
    "s5378": {("bin", 16): 3162, ("non", 16): 3165, ("bin", 32): 3175,
              ("non", 32): 3190, ("bin", 64): 3179, ("non", 64): 3205},
}

#: Table 6 — fault sampling: per sample size (100/200/300 faults):
#: (detected, vectors, speedup vs full fault list).
TABLE6: Dict[str, Dict[int, Tuple[float, int, float]]] = {
    "s298": {100: (264.5, 161, 1.05), 200: (264.7, 168, 0.99), 300: (265.0, 179, 0.95)},
    "s382": {100: (348.1, 295, 1.06), 200: (347.2, 277, 1.03), 300: (347.3, 274, 1.01)},
    "s386": {100: (286.8, 128, 1.16), 200: (297.3, 133, 1.11), 300: (295.3, 143, 1.07)},
    "s526": {100: (417.0, 293, 1.79), 200: (417.4, 314, 1.04), 300: (418.8, 295, 1.04)},
    "s820": {100: (494.7, 144, 2.75), 200: (536.8, 157, 1.77), 300: (532.2, 155, 1.45)},
    "s832": {100: (476.4, 137, 2.51), 200: (526.3, 158, 1.70), 300: (546.2, 156, 1.40)},
    "s1196": {100: (1230, 373, 1.55), 200: (1231, 384, 1.08), 300: (1230, 348, 1.12)},
    "s1238": {100: (1269, 389, 1.26), 200: (1274, 375, 1.19), 300: (1274, 381, 1.18)},
    "s1423": {100: (1245, 619, 3.28), 200: (1255, 587, 2.32), 300: (1287, 778, 1.11)},
    "s1488": {100: (1153, 211, 2.14), 200: (1394, 272, 1.03), 300: (1378, 233, 1.12)},
    "s1494": {100: (1303, 267, 1.65), 200: (1370, 235, 1.17), 300: (1400, 242, 1.10)},
    "s5378": {100: (3048, 394, 6.31), 200: (3095, 409, 5.24), 300: (3130, 450, 4.25)},
    "s35932": {100: (34839, 234, 4.53), 200: (34854, 185, 4.74), 300: (34926, 203, 4.35)},
}

#: Table 7 — overlapping populations: per generation gap label:
#: (detected, vectors, speedup vs nonoverlapping).
TABLE7: Dict[str, Dict[str, Tuple[float, int, float]]] = {
    "s298": {"2/N": (263.9, 205, 1.03), "1/4": (264.4, 183, 1.14),
             "1/2": (264.7, 173, 1.12), "3/4": (265.0, 167, 1.27)},
    "s382": {"2/N": (348.1, 270, 1.24), "1/4": (347.8, 277, 1.23),
             "1/2": (346.7, 283, 1.17), "3/4": (347.0, 270, 1.28)},
    "s386": {"2/N": (294.4, 137, 1.28), "1/4": (294.9, 134, 1.34),
             "1/2": (295.5, 142, 1.26), "3/4": (296.8, 144, 1.30)},
    "s526": {"2/N": (416.7, 306, 1.20), "1/4": (420.4, 299, 1.21),
             "1/2": (417.2, 298, 1.13), "3/4": (418.1, 301, 1.25)},
    "s820": {"2/N": (520.2, 155, 1.28), "1/4": (522.4, 144, 1.37),
             "1/2": (519.5, 141, 1.34), "3/4": (500.1, 138, 1.38)},
    "s832": {"2/N": (512.2, 140, 1.22), "1/4": (508.0, 154, 1.14),
             "1/2": (521.9, 151, 1.14), "3/4": (500.7, 142, 1.21)},
    "s1196": {"2/N": (1231, 341, 1.30), "1/4": (1231, 374, 1.20),
              "1/2": (1231, 356, 1.22), "3/4": (1230, 385, 1.20)},
    "s1238": {"2/N": (1271, 388, 1.30), "1/4": (1274, 393, 1.31),
              "1/2": (1274, 378, 1.27), "3/4": (1273, 394, 1.36)},
    "s1423": {"2/N": (1213, 666, 1.23), "1/4": (1216, 677, 1.20),
              "1/2": (1247, 657, 1.14), "3/4": (1239, 669, 1.16)},
    "s1488": {"2/N": (1381, 220, 1.38), "1/4": (1410, 252, 1.33),
              "1/2": (1393, 231, 1.28), "3/4": (1404, 247, 1.35)},
    "s1494": {"2/N": (1410, 256, 1.21), "1/4": (1402, 236, 1.28),
              "1/2": (1402, 250, 1.15), "3/4": (1408, 239, 1.32)},
    "s5378": {"2/N": (3164, 522, 1.12), "1/4": (3170, 560, 1.09),
              "1/2": (3156, 490, 1.23), "3/4": (3193, 500, 1.33)},
}

def table3_scheme_means() -> Dict[str, float]:
    """Mean detected fraction per selection scheme across Table 3.

    Values are normalized per circuit (detected / best cell for that
    circuit) before averaging so large circuits don't dominate.
    """
    sums: Dict[str, List[float]] = {}
    for circuit, schemes in TABLE3.items():
        best = max(max(xo.values()) for xo in schemes.values())
        for scheme, xo in schemes.items():
            for value in xo.values():
                sums.setdefault(scheme, []).append(value / best)
    return {s: sum(v) / len(v) for s, v in sums.items()}


def table3_crossover_means() -> Dict[str, float]:
    """Mean normalized detections per crossover operator across Table 3."""
    sums: Dict[str, List[float]] = {}
    for circuit, schemes in TABLE3.items():
        best = max(max(xo.values()) for xo in schemes.values())
        for xo_map in schemes.values():
            for xo, value in xo_map.items():
                sums.setdefault(xo, []).append(value / best)
    return {x: sum(v) / len(v) for x, v in sums.items()}
