static unsigned int acc = 1;
static void mix(unsigned int v) { acc = acc * 31 + v; }
int g0[4] = {6, 7};
int g1[3] = {-4, 8};
int g2[2] = {1, -7};
static int f0(int a, int b) {
    int r = a | (b & 6);
    if (r != -5)
        r = r ^ 4;
    r = r + 5;
    mix((unsigned int)r);
    return r;
}
static int f1(int a, int b) {
    int r = a * (b * 7);
    r = r ^ f0(r, 7);
    mix((unsigned int)r);
    return r;
}
int main(void) {
    int v0 = 11;
    v0 = v0 ^ f0(g2[(unsigned int)(f0(f1(g1[(unsigned int)(-9) % 3u], g1[(unsigned int)(3) % 3u]), ((-15 / 2) / 2))) % 2u], g2[(unsigned int)((((13 | 10) | -15) & (f0(20, 1) == f0(10, -12)))) % 2u]);
    v0 -= (((v0 & (-6 * -17)) == ((11 > 7) << 5)) << 2);
    g0[(unsigned int)((-4 >> 5)) % 4u] = -2;
    if (f1(-10, -12) >= (-19 < -18)) {
        g0[(unsigned int)(f1(1, (g1[(unsigned int)(12) % 3u] << 0))) % 4u] = ((g0[(unsigned int)(12) % 4u] % 6) == g2[(unsigned int)(2) % 2u]);
    } else {
        {
            int w0 = 4;
            while (w0 > 0) {
                int a0[4] = {6, 1};
                mix(3u);
                w0 = w0 - 1;
            }
        }
        int a1[3] = {8, 9};
    }
    for (int i1 = 0; i1 < 3; i1++) {
        if (((((14 | -19) / 1) != -10) >= (f1((-17 ^ 11), g0[(unsigned int)(-16) % 4u]) % 1)) > (((g0[(unsigned int)(3) % 4u] >> 4) <= (g1[(unsigned int)(-9) % 3u] / 4)) * -3)) {
            unsigned int v1 = (unsigned int)((i1 % 6) >= (v0 >= f0(v0, g2[(unsigned int)(-17) % 2u])));
        }
        v0 = f1(v0, (((-13 <= 20) << 7) << 7));
    }
    int v2 = (v0 > (((-19 >> 6) ^ (1 & -14)) & v0));
    int a2[5] = {-9, 6};
    v0 = v0 ^ f0(g2[(unsigned int)((f1(10, v2) != ((9 << 0) / 8))) % 2u], (((f1(-3, 5) & (-15 >> 3)) >= ((-7 == 13) % 8)) >> 6));
    printf("%u %d\n", acc, v0);
    return (int)(acc % 126);
}
