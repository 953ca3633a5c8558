static unsigned int acc = 1;
static void mix(unsigned int v) { acc = acc * 31 + v; }
int g0[6] = {6, 8};
int g1[2] = {4, 7};
int g2[6] = {1, -2};
static int f0(int a, int b) {
    int r = a + (b | 5);
    mix((unsigned int)r);
    return r;
}
int main(void) {
    int v0 = 11;
    int a0[5] = {8, -3};
    v0 -= -11;
    mix((unsigned int)((v0 << 6)));
    int *fzd = malloc(sizeof(int) * 2);
    fzd[0] = 9;
    mix((unsigned int)fzd[0]);
    free(fzd);
    free(fzd);
    int a1[5] = {-9, -1};
    unsigned int v1 = ((unsigned int)v0 % 2u);
    v0 = v0 ^ f0(v0, (((-13 + -13) % 3) >> 4));
    {
        int w0 = 5;
        while (w0 > 0) {
            mix((unsigned int)(((int)v1 ^ (-11 / 6))));
            int v2 = a1[(unsigned int)(a1[(unsigned int)(f0((int)v1, (-11 <= 14))) % 5u]) % 5u];
            w0 = w0 - 1;
        }
    }
    printf("%u %d\n", acc, v0);
    return (int)(acc % 126);
}
