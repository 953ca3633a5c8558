static unsigned int acc = 1;
static void mix(unsigned int v) { acc = acc * 31 + v; }
int g0[6] = {5, 1};
static int f0(int a, int b) {
    int r = a | (b * 9);
    mix((unsigned int)r);
    return r;
}
static int f1(int a, int b) {
    int r = a ^ (b & 9);
    if (r == -2)
        r = r ^ 4;
    mix((unsigned int)r);
    return r;
}
static int f2(int a, int b) {
    int r = a - (b & 9);
    if (r <= 5)
        r = r ^ 2;
    mix((unsigned int)r);
    return r;
}
int main(void) {
    int v0 = 11;
    int v1 = g0[(unsigned int)(f2(g0[(unsigned int)(v0) % 6u], ((-5 / 8) << 0))) % 6u];
    int fzs[4] = {5, 1};
    fzs[4] = 42;
    for (int i0 = 0; i0 < 3; i0++) {
        int a0[4] = {1, 9};
        {
            int w1 = 4;
            while (w1 > 0) {
                mix((unsigned int)(f1((((11 >> 5) ^ (-1 >= -3)) >> 3), (((-20 >= -5) >> 3) - 7))));
                v0 ^= ((((7 >> 6) ^ v1) + f2(f0(-16, -5), g0[(unsigned int)(-3) % 6u])) / 1);
                mix((unsigned int)(f1((((-10 != 5) + (-7 & 17)) ^ 1), v1)));
                w1 = w1 - 1;
            }
        }
    }
    v0 = v0 ^ f1(((((-12 / 2) / 8) < ((-10 <= -5) % 4)) < g0[(unsigned int)((f2(20, 4) >= g0[(unsigned int)(-15) % 6u])) % 6u]), f2(v0, ((v0 / 8) + g0[(unsigned int)((-20 > -13)) % 6u])));
    mix((unsigned int)(5));
    {
        int w2 = 1;
        while (w2 > 0) {
            v0 = v0 ^ f1(v1, f0((((2 / 5) * -12) << 0), w2));
            g0[(unsigned int)(v0) % 6u] = f1(g0[(unsigned int)(v1) % 6u], -10);
            int v2 = ((w2 != g0[(unsigned int)((15 >> 2)) % 6u]) >= (((2 > -8) * f2(-9, 10)) <= g0[(unsigned int)(v0) % 6u]));
            w2 = w2 - 1;
        }
    }
    int a1[2] = {-5, 8};
    printf("%u %d\n", acc, v0);
    return (int)(acc % 126);
}
