static unsigned int acc = 1;
static void mix(unsigned int v) { acc = acc * 31 + v; }
int g0[5] = {6, 5};
int g1[6] = {4, -2};
static int f0(int a, int b) {
    int r = a & (b | 5);
    r = r + 1;
    mix((unsigned int)r);
    return r;
}
static int f1(int a, int b) {
    int r = a | (b - 1);
    r = r ^ f0(r, -4);
    mix((unsigned int)r);
    return r;
}
static int f2(int a, int b) {
    int r = a * (b - 3);
    if (r >= -4)
        r = r & 4;
    mix((unsigned int)r);
    return r;
}
int main(void) {
    int v0 = 11;
    g1[(unsigned int)((((-11 / 3) / 5) % 2)) % 6u] = (10 >= (v0 % 3));
    for (int i0 = 0; i0 < 3; i0++) {
        mix((unsigned int)(f1(4, (v0 | ((-9 % 6) << 1)))));
        {
            int w1 = 3;
            while (w1 > 0) {
                mix(9u);
                w1 = w1 - 1;
            }
        }
        unsigned int v1 = (unsigned int)f2(g1[(unsigned int)(-10) % 6u], 11);
    }
    v0 = v0 ^ f0(g1[(unsigned int)((((-5 >> 4) ^ v0) * g1[(unsigned int)(v0) % 6u])) % 6u], ((((10 < -15) << 1) / 1) >> 0));
    v0 += ((g0[(unsigned int)(f0(-19, 12)) % 5u] % 3) <= (g1[(unsigned int)((15 >> 0)) % 6u] * v0));
    mix((unsigned int)(f2(((7 >> 5) - (v0 / 7)), (((8 << 1) / 2) & f0(f0(4, -4), v0)))));
    g1[(unsigned int)((v0 << 5)) % 6u] = v0;
    g1[(unsigned int)((((-3 % 2) > (11 / 1)) != -9)) % 6u] = f0((18 << 1), f2(v0, 7));
    mix((unsigned int)(v0));
    printf("%u %d\n", acc, v0);
    return (int)(acc % 126);
}
