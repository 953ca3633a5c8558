static unsigned int acc = 1;
static void mix(unsigned int v) { acc = acc * 31 + v; }
int g0[6] = {-3, -5};
int g1[5] = {-7, -5};
static int f0(int a, int b) {
    int r = a + (b - 7);
    if (r <= 4)
        r = r + 2;
    r = r + 5;
    mix((unsigned int)r);
    return r;
}
static int f1(int a, int b) {
    int r = a + (b - 1);
    if (r >= -4)
        r = r - 1;
    r = r ^ f0(r, 0);
    mix((unsigned int)r);
    return r;
}
int main(void) {
    int v0 = 11;
    v0 ^= (v0 << 3);
    int v1 = g0[(unsigned int)((((-15 > -15) << 4) >> 5)) % 6u];
    v0 = v0 ^ f0(-4, v0);
    mix((unsigned int)(((g0[(unsigned int)(g0[(unsigned int)(-7) % 6u]) % 6u] & ((17 >> 0) % 4)) / 8)));
    int a0[2] = {-2, 1};
    if (f0((f1((-17 != 20), (7 >= -2)) / 4), 20) >= f0((f0((-1 > 19), f0(-6, 10)) >= (-20 << 2)), v0)) {
        v0 = v0 ^ f0(f1((v1 == 4), ((-1 << 3) ^ g0[(unsigned int)(-5) % 6u])), (-12 >> 2));
        v0 ^= v0;
    } else {
        int a1[3] = {-2, 0};
        unsigned int v2 = (unsigned int)v1;
    }
    int v3 = v1;
    int v4 = v3;
    if (17 < (((v3 / 3) >> 3) > (((-17 > -7) << 2) / 6))) {
        v0 = v0 ^ f0((1 | (v0 <= a0[(unsigned int)((2 >> 4)) % 2u])), ((((-4 >> 4) << 1) <= (f1(-8, -8) >> 2)) >> 4));
        mix((unsigned int)((((1 << 2) / 3) / 7)));
    }
    if ((5 - -12) <= ((2 / 6) % 6)) {
        {
            int w0 = 4;
            while (w0 > 0) {
                int v5 = f1((((12 / 6) ^ g1[(unsigned int)(-1) % 5u]) & ((11 % 2) % 7)), (-14 ^ f1(g1[(unsigned int)(11) % 5u], (19 << 2))));
                w0 = w0 - 1;
            }
        }
        if (((-9 != ((-4 >> 4) << 4)) < f1(13, (a0[(unsigned int)(20) % 2u] >> 5))) < ((15 / 9) % 8)) {
            v0 = v0 ^ f1(v1, g0[(unsigned int)(f1(f0((-4 ^ -16), f1(-10, -11)), -16)) % 6u]);
            mix(9u);
            v0 = v0 ^ f0((v1 >> 6), ((((7 >> 0) << 5) / 7) / 1));
        }
        if (v3 < ((v4 ^ (18 >> 2)) / 5)) {
            mix(9u);
            int a2[3] = {-9, 8};
            mix(5u);
        } else {
            v3 -= (v4 / 9);
            mix((unsigned int)(a0[(unsigned int)(a0[(unsigned int)(a0[(unsigned int)(a0[(unsigned int)(18) % 2u]) % 2u]) % 2u]) % 2u]));
            v0 = f1(13, (((-18 >> 0) > (12 / 1)) ^ f1(g0[(unsigned int)(6) % 6u], -1)));
        }
    } else {
        int a3[6] = {6, 1};
        for (int i1 = 0; i1 < 6; i1++) {
            int v6 = a3[(unsigned int)(17) % 6u];
            mix((unsigned int)(v4));
            mix(5u);
        }
        int a4[5] = {8, 0};
    }
    printf("%u %d\n", acc, v0);
    return (int)(acc % 126);
}
