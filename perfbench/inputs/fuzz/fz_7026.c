static unsigned int acc = 1;
static void mix(unsigned int v) { acc = acc * 31 + v; }
int g0[4] = {4, 0};
static int f0(int a, int b) {
    int r = a + (b & 4);
    mix((unsigned int)r);
    return r;
}
static int f1(int a, int b) {
    int r = a | (b - 4);
    if (r > -3)
        r = r & 2;
    r = r ^ f0(r, 3);
    mix((unsigned int)r);
    return r;
}
int main(void) {
    int v0 = 11;
    mix((unsigned int)(g0[(unsigned int)((v0 ^ ((12 >> 6) / 6))) % 4u]));
    {
        int w0 = 3;
        while (w0 > 0) {
            int a0[6] = {-8, -2};
            w0 = w0 - 1;
        }
    }
    v0 = -2;
    v0 = g0[(unsigned int)((f0(f0(-3, 14), (3 << 0)) < (g0[(unsigned int)(-20) % 4u] - g0[(unsigned int)(3) % 4u]))) % 4u];
    int *fzz = 0;
    mix((unsigned int)fzz[0]);
    printf("%u %d\n", acc, v0);
    return (int)(acc % 126);
}
