static unsigned int acc = 1;
static void mix(unsigned int v) { acc = acc * 31 + v; }
int g0[4] = {7, 3};
int g1[3] = {-1, 0};
static int f0(int a, int b) {
    int r = a | (b ^ 5);
    if (r < -2)
        r = r + 4;
    mix((unsigned int)r);
    return r;
}
static int f1(int a, int b) {
    int r = a + (b ^ 5);
    mix((unsigned int)r);
    return r;
}
int main(void) {
    int v0 = 11;
    for (int i0 = 0; i0 < 2; i0++) {
        {
            int w1 = 3;
            while (w1 > 0) {
                mix(5u);
                mix(5u);
                int v1 = (-17 & (v0 << 0));
                w1 = w1 - 1;
            }
        }
    }
    {
        int w2 = 2;
        while (w2 > 0) {
            if ((((f1(-16, 6) % 5) << 7) * ((3 != (-13 * -3)) * (g0[(unsigned int)(-6) % 4u] > g1[(unsigned int)(10) % 3u]))) == f1(f0(-7, 4), g0[(unsigned int)(((-20 / 1) << 0)) % 4u])) {
                mix(5u);
                mix((unsigned int)(((v0 <= 13) <= (f0(g1[(unsigned int)(6) % 3u], (-12 % 9)) < (g1[(unsigned int)(7) % 3u] / 9)))));
            }
            {
                int w3 = 3;
                while (w3 > 0) {
                    mix((unsigned int)(11));
                    w3 = w3 - 1;
                }
            }
            for (int i4 = 0; i4 < 1; i4++) {
                mix(9u);
                mix((unsigned int)(16));
                int v2 = (((7 / 4) + ((-14 <= -16) <= (11 >= 10))) <= (g0[(unsigned int)(v0) % 4u] / 9));
            }
            w2 = w2 - 1;
        }
    }
    for (int i5 = 0; i5 < 3; i5++) {
        v0 = v0 ^ f0((g1[(unsigned int)(f0((-20 / 4), (3 / 1))) % 3u] % 2), g0[(unsigned int)(-16) % 4u]);
        int v3 = f1((20 ^ (f0(2, -8) >= (-6 / 5))), v0);
    }
    {
        int w6 = 1;
        while (w6 > 0) {
            for (int i7 = 0; i7 < 4; i7++) {
                mix(3u);
            }
            g1[(unsigned int)((-12 | v0)) % 3u] = g1[(unsigned int)(-20) % 3u];
            int a0[6] = {4, 1};
            w6 = w6 - 1;
        }
    }
    unsigned int v4 = 10u;
    for (int i8 = 0; i8 < 5; i8++) {
        v0 = v0 ^ f0((7 + g1[(unsigned int)((v0 > (16 == -14))) % 3u]), f1((((4 % 6) >> 5) % 7), (4 & (g1[(unsigned int)(2) % 3u] >= 15))));
    }
    {
        int w9 = 5;
        while (w9 > 0) {
            if (((g0[(unsigned int)(4) % 4u] << 3) << 7) <= -4) {
                mix(5u);
                v0 = v0 ^ f1(((8 << 0) == ((f1(19, 10) % 5) != f1((-5 >= 20), f0(9, 8)))), -3);
                int a1[4] = {3, 5};
            } else {
                int a2[4] = {3, 4};
                v4 ^= (unsigned int)((((-4 >= 19) > (-20 ^ -6)) >> 4) >= (((-10 + -15) / 5) % 3));
                g0[(unsigned int)((((9 | -14) + 11) + ((13 - -13) == (int)v4))) % 4u] = (f1(-14, (f1(-10, 14) % 7)) * (((-17 % 8) % 5) * (a2[(unsigned int)(1) % 4u] + g1[(unsigned int)(17) % 3u])));
            }
            w9 = w9 - 1;
        }
    }
    v0 += v0;
    if (f0((((12 - -9) - g1[(unsigned int)(-6) % 3u]) % 1), f0((f0(-11, -18) % 5), ((-18 + 17) != (-16 >> 1)))) >= (int)v4) {
        if (v0 >= ((f0(g1[(unsigned int)(-16) % 3u], -4) >> 0) != (((11 / 8) >> 0) % 1))) {
            v4 += (unsigned int)f0((((15 >> 3) & (13 & 10)) % 3), f1(3, g1[(unsigned int)(-20) % 3u]));
        }
        v0 = (g0[(unsigned int)(((12 << 3) / 4)) % 4u] >> 2);
    }
    printf("%u %d\n", acc, v0);
    return (int)(acc % 126);
}
