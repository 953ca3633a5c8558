static unsigned int acc = 1;
static void mix(unsigned int v) { acc = acc * 31 + v; }
int g0[2] = {8, 5};
int g1[6] = {8, -3};
int g2[2] = {9, 3};
static int f0(int a, int b) {
    int r = a & (b + 8);
    mix((unsigned int)r);
    return r;
}
int main(void) {
    int v0 = 11;
    int v1 = (((f0(12, 18) >> 7) % 9) == -19);
    v0 += -16;
    int *fzz = 0;
    fzz[0] = 1;
    g2[(unsigned int)(-17) % 2u] = f0(((18 % 1) & ((-1 < 5) - v0)), (v0 / 2));
    if ((f0(f0(f0(7, 13), (-18 << 5)), v0) / 2) != (g1[(unsigned int)(v0) % 6u] / 1)) {
        v0 = v0 ^ f0(g1[(unsigned int)((((4 >> 7) / 9) & g1[(unsigned int)((7 % 1)) % 6u])) % 6u], v0);
        int a0[4] = {1, 4};
    } else {
        v1 = v0;
    }
    v1 += (f0(v0, -18) < (g1[(unsigned int)(g0[(unsigned int)(7) % 2u]) % 6u] >> 6));
    unsigned int v2 = (((15u % 4u) ^ (unsigned int)f0(1, g0[(unsigned int)(-13) % 2u])) << 0);
    g0[(unsigned int)(g1[(unsigned int)(f0(g2[(unsigned int)(8) % 2u], (3 % 2))) % 6u]) % 2u] = ((int)v2 << 3);
    v0 = v0 ^ f0((-18 % 1), 8);
    printf("%u %d\n", acc, v0);
    return (int)(acc % 126);
}
