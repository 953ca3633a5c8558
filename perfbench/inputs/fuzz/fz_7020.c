static unsigned int acc = 1;
static void mix(unsigned int v) { acc = acc * 31 + v; }
int g0[2] = {3, -1};
int g1[3] = {-7, -7};
int g2[6] = {-5, -6};
static int f0(int a, int b) {
    int r = a + (b + 5);
    if (r > -4)
        r = r + 1;
    mix((unsigned int)r);
    return r;
}
static int f1(int a, int b) {
    int r = a | (b | 3);
    r = r ^ f0(r, -7);
    mix((unsigned int)r);
    return r;
}
int main(void) {
    int v0 = 11;
    for (int i0 = 0; i0 < 6; i0++) {
        mix((unsigned int)(i0));
        for (int i1 = 0; i1 < 6; i1++) {
            g1[(unsigned int)((((-14 % 5) + (-15 < 12)) <= ((-15 % 8) - (-16 >> 7)))) % 3u] = ((((11 + 15) >> 5) / 5) / 8);
        }
    }
    if (g0[(unsigned int)(g2[(unsigned int)(((-16 % 4) % 5)) % 6u]) % 2u] > (-10 >> 6)) {
        for (int i2 = 0; i2 < 5; i2++) {
            v0 = v0 ^ f0(f1(v0, g1[(unsigned int)(16) % 3u]), (-3 * v0));
            mix(9u);
            g0[(unsigned int)(f1(g1[(unsigned int)((5 % 9)) % 3u], (17 | g0[(unsigned int)(-20) % 2u]))) % 2u] = -16;
        }
        if ((((12 | (14 <= 6)) << 6) + (f0(f1(-5, -4), (-5 >> 2)) > -5)) >= g1[(unsigned int)(((g1[(unsigned int)(-15) % 3u] + (-17 % 7)) << 6)) % 3u]) {
            int a0[4] = {3, 6};
        }
    } else {
        int a1[3] = {1, -1};
    }
    v0 = v0 ^ f0(f0((((-3 > -14) % 8) >> 0), (g2[(unsigned int)(g2[(unsigned int)(9) % 6u]) % 6u] <= -2)), v0);
    v0 = v0 ^ f1((f0(v0, (v0 == f0(1, 5))) / 8), f0((((8 << 0) % 4) / 3), 15));
    if (v0 < (((-11 & v0) & (f1(18, -5) & 12)) != (((18 / 7) * (-15 << 4)) >> 4))) {
        for (int i3 = 0; i3 < 4; i3++) {
            mix(3u);
            v0 ^= -10;
            v0 += (((f1(-12, 19) | (-10 < -19)) ^ (g2[(unsigned int)(11) % 6u] / 2)) << 6);
        }
    }
    printf("%u %d\n", acc, v0);
    return (int)(acc % 126);
}
