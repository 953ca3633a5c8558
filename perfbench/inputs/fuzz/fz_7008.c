static unsigned int acc = 1;
static void mix(unsigned int v) { acc = acc * 31 + v; }
int g0[5] = {5, -9};
static int f0(int a, int b) {
    int r = a - (b + 2);
    mix((unsigned int)r);
    return r;
}
static int f1(int a, int b) {
    int r = a | (b * 3);
    if (r > 0)
        r = r - 4;
    r = r ^ f0(r, -2);
    mix((unsigned int)r);
    return r;
}
int main(void) {
    int v0 = 11;
    mix((unsigned int)((v0 % 3)));
    v0 ^= v0;
    v0 = v0 ^ f1(((f1(g0[(unsigned int)(0) % 5u], f1(4, 18)) << 0) / 8), v0);
    {
        int w0 = 3;
        while (w0 > 0) {
            {
                int w1 = 3;
                while (w1 > 0) {
                    int v1 = g0[(unsigned int)(w0) % 5u];
                    w1 = w1 - 1;
                }
            }
            if (g0[(unsigned int)((f1(w0, (20 ^ -9)) | (g0[(unsigned int)(4) % 5u] % 9))) % 5u] < ((f0((1 - 12), (8 ^ -20)) / 1) / 2)) {
                mix(9u);
            } else {
                g0[(unsigned int)((((-7 << 6) % 7) < (g0[(unsigned int)(-20) % 5u] & w0))) % 5u] = v0;
            }
            w0 = w0 - 1;
        }
    }
    g0[(unsigned int)((v0 | f1(g0[(unsigned int)(-17) % 5u], 4))) % 5u] = ((v0 != (g0[(unsigned int)(3) % 5u] / 6)) << 1);
    int *fzd = malloc(sizeof(int) * 2);
    fzd[0] = 1;
    mix((unsigned int)fzd[0]);
    free(fzd);
    free(fzd);
    int a0[6] = {-5, -1};
    v0 = f0((((-19 == -13) / 8) <= (v0 != (-2 / 6))), (17 % 1));
    mix((unsigned int)(g0[(unsigned int)(f0(g0[(unsigned int)(v0) % 5u], (v0 % 2))) % 5u]));
    mix((unsigned int)(g0[(unsigned int)(g0[(unsigned int)(4) % 5u]) % 5u]));
    int a1[6] = {4, -9};
    printf("%u %d\n", acc, v0);
    return (int)(acc % 126);
}
