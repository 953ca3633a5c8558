static unsigned int acc = 1;
static void mix(unsigned int v) { acc = acc * 31 + v; }
int g0[3] = {-8, -5};
int g1[6] = {1, 8};
int g2[2] = {-3, -2};
static int f0(int a, int b) {
    int r = a & (b * 5);
    if (r == -3)
        r = r * 1;
    mix((unsigned int)r);
    return r;
}
int main(void) {
    int v0 = 11;
    mix((unsigned int)((f0((v0 >> 1), ((6 & 4) + g0[(unsigned int)(5) % 3u])) << 5)));
    unsigned int v1 = ((unsigned int)g1[(unsigned int)(v0) % 6u] / 2u);
    {
        int w0 = 1;
        while (w0 > 0) {
            if (-3 < g2[(unsigned int)(v0) % 2u]) {
                v0 = v0 ^ f0(18, v0);
                mix(9u);
                int v2 = (w0 << 7);
            } else {
                mix(5u);
            }
            v0 = v0 ^ f0(((g0[(unsigned int)((-11 << 5)) % 3u] != (v0 >> 5)) << 0), -16);
            w0 = w0 - 1;
        }
    }
    v0 = v0 ^ f0(((v0 << 6) << 6), ((int)v1 % 2));
    v0 = v0 ^ f0((g1[(unsigned int)(g2[(unsigned int)((int)v1) % 2u]) % 6u] | (-1 / 3)), f0(((-20 / 4) >> 0), 14));
    int *fzz = 0;
    mix((unsigned int)fzz[0]);
    printf("%u %d\n", acc, v0);
    return (int)(acc % 126);
}
