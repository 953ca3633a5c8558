static unsigned int acc = 1;
static void mix(unsigned int v) { acc = acc * 31 + v; }
int g0[4] = {-8, 2};
static int f0(int a, int b) {
    int r = a * (b & 5);
    mix((unsigned int)r);
    return r;
}
int main(void) {
    int v0 = 11;
    for (int i0 = 0; i0 < 3; i0++) {
        for (int i1 = 0; i1 < 4; i1++) {
            mix(5u);
            mix((unsigned int)(g0[(unsigned int)(((v0 << 6) & g0[(unsigned int)(g0[(unsigned int)(12) % 4u]) % 4u])) % 4u]));
            int v1 = (((i0 == -18) >= f0(i1, g0[(unsigned int)(16) % 4u])) % 2);
        }
        v0 += g0[(unsigned int)(f0((g0[(unsigned int)(9) % 4u] << 2), ((-10 % 6) >> 0))) % 4u];
    }
    {
        int w2 = 5;
        while (w2 > 0) {
            mix((unsigned int)((-2 * v0)));
            g0[(unsigned int)(f0((f0(-6, 9) >> 4), ((-1 != -20) << 4))) % 4u] = (((0 * f0(-14, 1)) % 2) % 5);
            {
                int w3 = 4;
                while (w3 > 0) {
                    mix(3u);
                    mix((unsigned int)(((f0(f0(19, 16), (0 < 0)) << 1) / 9)));
                    w3 = w3 - 1;
                }
            }
            w2 = w2 - 1;
        }
    }
    g0[(unsigned int)(g0[(unsigned int)((-5 | (17 / 7))) % 4u]) % 4u] = v0;
    g0[(unsigned int)(19) % 4u] = (v0 / 9);
    {
        int w4 = 1;
        while (w4 > 0) {
            v0 = v0 ^ f0(v0, f0((((-19 << 6) == (4 != 4)) >> 2), f0(((5 >> 0) == f0(-3, -12)), 18)));
            w4 = w4 - 1;
        }
    }
    mix((unsigned int)(v0));
    printf("%u %d\n", acc, v0);
    return (int)(acc % 126);
}
