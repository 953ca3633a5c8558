static unsigned int acc = 1;
static void mix(unsigned int v) { acc = acc * 31 + v; }
int g0[5] = {1, 6};
int g1[4] = {-5, 4};
int g2[5] = {-1, -7};
static int f0(int a, int b) {
    int r = a * (b + 9);
    if (r != -3)
        r = r * 3;
    r = r + 4;
    mix((unsigned int)r);
    return r;
}
int main(void) {
    int v0 = 11;
    g2[(unsigned int)(((v0 >> 5) <= g1[(unsigned int)(g2[(unsigned int)(-14) % 5u]) % 4u])) % 5u] = -18;
    if (((((5 / 8) / 8) << 5) & v0) >= ((8 >> 4) - (((15 * 19) / 4) ^ f0((12 * -16), 18)))) {
        v0 = v0 ^ f0(g1[(unsigned int)(((v0 >> 0) >> 7)) % 4u], (v0 / 6));
        if (17 == v0) {
            mix((unsigned int)(((f0((-13 * -2), v0) >= 19) < (g0[(unsigned int)(-3) % 5u] % 6))));
            mix(3u);
        } else {
            v0 = (((11 / 8) == g1[(unsigned int)(-19) % 4u]) << 3);
        }
        for (int i0 = 0; i0 < 3; i0++) {
            mix(3u);
            mix(9u);
        }
    }
    g1[(unsigned int)(f0((v0 % 4), ((20 + -17) % 7))) % 4u] = ((((-5 / 8) >> 3) - ((16 / 6) / 4)) > ((v0 << 2) << 4));
    int *fzz = 0;
    fzz[0] = 1;
    v0 = -2;
    int a0[6] = {6, -5};
    {
        int w1 = 1;
        while (w1 > 0) {
            if ((7 ^ (f0((-3 / 6), -8) + v0)) > a0[(unsigned int)((8 >> 7)) % 6u]) {
                int v1 = w1;
            } else {
                a0[(unsigned int)(f0(((-14 / 4) << 1), g1[(unsigned int)(11) % 4u])) % 6u] = g1[(unsigned int)(w1) % 4u];
            }
            for (int i2 = 0; i2 < 5; i2++) {
                v0 = (a0[(unsigned int)(v0) % 6u] < f0(((-16 << 4) + (14 >> 1)), f0((-20 << 2), -7)));
                v0 ^= (f0((a0[(unsigned int)(13) % 6u] ^ v0), i2) - (w1 > (w1 ^ i2)));
            }
            w1 = w1 - 1;
        }
    }
    v0 = v0 ^ f0((v0 % 3), ((g0[(unsigned int)((-5 % 6)) % 5u] >> 6) | f0(f0(g1[(unsigned int)(-5) % 4u], a0[(unsigned int)(3) % 6u]), ((-7 / 1) % 8))));
    int v2 = ((((12 >> 2) % 4) & v0) * ((a0[(unsigned int)(18) % 6u] & -15) < v0));
    unsigned int v3 = ((unsigned int)v0 % 8u);
    printf("%u %d\n", acc, v0);
    return (int)(acc % 126);
}
