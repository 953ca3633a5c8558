static unsigned int acc = 1;
static void mix(unsigned int v) { acc = acc * 31 + v; }
int g0[3] = {6, -2};
int g1[2] = {-2, 8};
int g2[4] = {6, -3};
static int f0(int a, int b) {
    int r = a | (b & 4);
    mix((unsigned int)r);
    return r;
}
int main(void) {
    int v0 = 11;
    for (int i0 = 0; i0 < 5; i0++) {
        g1[(unsigned int)(g2[(unsigned int)(8) % 4u]) % 2u] = v0;
    }
    {
        int w1 = 2;
        while (w1 > 0) {
            g0[(unsigned int)((f0(v0, f0(4, -4)) & w1)) % 3u] = (((f0(9, 5) << 6) << 7) / 5);
            int v1 = w1;
            w1 = w1 - 1;
        }
    }
    mix((unsigned int)((v0 <= v0)));
    for (int i2 = 0; i2 < 1; i2++) {
        {
            int w3 = 1;
            while (w3 > 0) {
                int a0[2] = {9, -6};
                unsigned int v2 = 7u;
                w3 = w3 - 1;
            }
        }
        if (f0(g0[(unsigned int)(f0((-15 % 6), g2[(unsigned int)(-5) % 4u])) % 3u], (g0[(unsigned int)((5 % 3)) % 3u] / 6)) < f0((g0[(unsigned int)(i2) % 3u] <= (v0 ^ v0)), g0[(unsigned int)(((-3 - -12) > (9 << 6))) % 3u])) {
            v0 += ((((-8 << 5) == f0(19, -2)) << 7) % 7);
        } else {
            int v3 = (v0 >> 7);
            int v4 = f0(f0(g1[(unsigned int)((2 >= -8)) % 2u], (-16 >> 2)), (-14 == (v3 % 5)));
        }
    }
    g1[(unsigned int)(-19) % 2u] = (g0[(unsigned int)(f0((7 / 9), v0)) % 3u] / 2);
    int a1[5] = {7, -6};
    v0 = v0 ^ f0(((a1[(unsigned int)(f0(-18, -19)) % 5u] > -9) >> 2), ((f0(14, f0(3, 5)) & (f0(20, 16) - -14)) / 6));
    int a2[6] = {-8, -8};
    printf("%u %d\n", acc, v0);
    return (int)(acc % 126);
}
