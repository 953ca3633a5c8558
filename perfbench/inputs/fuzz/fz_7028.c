static unsigned int acc = 1;
static void mix(unsigned int v) { acc = acc * 31 + v; }
int g0[2] = {-8, -1};
static int f0(int a, int b) {
    int r = a - (b & 4);
    if (r >= 5)
        r = r | 7;
    mix((unsigned int)r);
    return r;
}
static int f1(int a, int b) {
    int r = a & (b - 6);
    mix((unsigned int)r);
    return r;
}
int main(void) {
    int v0 = 11;
    v0 = v0 ^ f1((3 / 3), v0);
    v0 ^= (((f0(13, -14) & (19 * 16)) ^ ((13 * 19) + f0(17, 19))) - (4 >> 5));
    g0[(unsigned int)((((-1 / 8) * g0[(unsigned int)(-20) % 2u]) >> 6)) % 2u] = (v0 / 4);
    mix((unsigned int)(((v0 ^ v0) | (((20 + -18) | f1(14, 17)) != -14))));
    g0[(unsigned int)(v0) % 2u] = (((g0[(unsigned int)(-11) % 2u] != (15 / 7)) / 3) / 9);
    v0 = v0 ^ f0((v0 - f1(v0, ((-10 & 10) >= v0))), g0[(unsigned int)((((12 % 6) % 4) <= 9)) % 2u]);
    mix((unsigned int)(v0));
    if ((v0 % 7) == v0) {
        for (int i0 = 0; i0 < 5; i0++) {
            mix((unsigned int)(f1(((g0[(unsigned int)(-20) % 2u] % 7) >> 5), f1(i0, -18))));
            g0[(unsigned int)(f0(((4 != 16) * (-10 / 5)), -15)) % 2u] = ((9 == ((-4 <= -6) | (-18 >= 20))) >= g0[(unsigned int)(g0[(unsigned int)((-17 << 2)) % 2u]) % 2u]);
            mix(5u);
        }
        if (-2 <= ((f1((-6 - 18), (-15 < 8)) % 8) | 18)) {
            g0[(unsigned int)(g0[(unsigned int)(f1(f1(17, -12), 12)) % 2u]) % 2u] = 13;
            g0[(unsigned int)(((v0 * g0[(unsigned int)(-4) % 2u]) >= ((-14 == 9) >= v0))) % 2u] = 16;
            mix((unsigned int)((f1(-2, f1(16, f1(8, -20))) + g0[(unsigned int)(g0[(unsigned int)(15) % 2u]) % 2u])));
        } else {
            g0[(unsigned int)((((-1 | -5) % 4) >> 2)) % 2u] = 7;
        }
    }
    {
        int w1 = 4;
        while (w1 > 0) {
            {
                int w2 = 1;
                while (w2 > 0) {
                    v0 = v0 ^ f0((g0[(unsigned int)(((-11 != 15) / 3)) % 2u] / 1), w1);
                    w2 = w2 - 1;
                }
            }
            if (v0 < g0[(unsigned int)(((w1 != (11 % 1)) <= f0((6 | 20), (3 >= 4)))) % 2u]) {
                mix(5u);
                mix((unsigned int)(16));
            } else {
                int v1 = (f1(((-15 == 20) / 8), ((-5 >> 6) - v0)) <= f0(((-18 ^ -7) % 2), (f1(-20, -15) >> 4)));
            }
            int a0[6] = {9, 7};
            w1 = w1 - 1;
        }
    }
    printf("%u %d\n", acc, v0);
    return (int)(acc % 126);
}
